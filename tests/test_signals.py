"""Interval algebra: normalization, Boolean combinations, restriction."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmon import (
    Atom,
    BooleanSignal,
    FlatKernel,
    PiecewiseConstantSignal,
    SclError,
    StreamingMonitor,
    TraceError,
    VerdictSignal,
    boolean_and,
    boolean_not,
    boolean_or,
    eval_atom,
    eval_conv_efficient,
    monitor,
    parse,
    restrict_domain,
)
from sclmon.cli import _verdict_segments
from sclmon.monitor import _alternating
from sclmon.signals import sorted_unique
from conftest import plateau_traces, random_boolean_signal, signal_bits


def sig(start, end, *intervals):
    return BooleanSignal.from_intervals(start, end, intervals)


class TestNormalization:
    def test_adjacent_intervals_merge(self):
        assert sig(0, 1, (0.0, 0.2), (0.2, 0.5)).intervals == ((0.0, 0.5),)

    def test_zero_length_intervals_dropped(self):
        assert sig(0, 1, (0.5, 0.5)).intervals == ()

    def test_overlapping_intervals_merge(self):
        assert sig(0, 1, (0.0, 0.4), (0.3, 0.7)).intervals == ((0.0, 0.7),)


class TestBooleanNot:
    def test_complement_of_middle_interval(self):
        assert boolean_not(sig(0, 1, (0.3, 0.9))) == sig(0, 1, (0.0, 0.3), (0.9, 1.0))

    def test_all_true_becomes_all_false(self):
        assert boolean_not(BooleanSignal.always(0, 2)).intervals == ()

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_boolean_signal(rng, 0.0, 5.0)
            assert boolean_not(boolean_not(s)) == s


class TestBooleanOr:
    def test_overlap_union(self):
        a = sig(0, 1, (0.0, 0.4))
        b = sig(0, 1, (0.3, 0.7))
        assert boolean_or(a, b) == sig(0, 1, (0.0, 0.7))

    def test_identity_with_false(self):
        a = sig(0, 1, (0.1, 0.2), (0.5, 0.6))
        assert boolean_or(a, BooleanSignal.never(0, 1)) == a

    def test_excluded_middle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = random_boolean_signal(rng, 0.0, 3.0)
            assert boolean_or(s, boolean_not(s)) == BooleanSignal.always(0.0, 3.0)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(SclError, match="domain mismatch"):
            boolean_or(sig(0, 1), sig(0, 2))


class TestRestrictDomain:
    def test_clips_intervals(self):
        assert restrict_domain(sig(0, 1, (0.3, 0.9)), (0.0, 0.5)) == \
            sig(0, 0.5, (0.3, 0.5))

    def test_full_domain_is_identity(self):
        s = sig(0, 1, (0.3, 0.9))
        assert restrict_domain(s, (0.0, 1.0)) == s

    @pytest.mark.parametrize("s", [
        sig(0, 1, (0.3, 0.9)),
        sig(-0.0, 1.0, (-0.0, 0.5)),
        sig(-0.0, 0.0),
        sig(-0.0, -0.0, (-0.0, -0.0)),
        sig(0.5, 0.5, (0.5, 0.5)),
        sig(0.5, 0.5),
        sig(-1.0, -0.0, (-0.5, -0.0)),
    ])
    def test_own_domain_keeps_every_bit(self, s):
        assert signal_bits(restrict_domain(s, s.domain)) == signal_bits(s)

    @settings(max_examples=100, deadline=None)
    @given(s=st.deferred(lambda: normal_signals()))
    def test_own_domain_keeps_every_bit_of_any_signal(self, s):
        assert signal_bits(restrict_domain(s, s.domain)) == signal_bits(s)

    def test_a_zero_bound_takes_the_requested_sign(self):
        # equal to the domain but for the sign of a zero: the bound is the
        # one asked for, and the edges keep their own bits
        s = sig(-0.0, 1.0, (-0.0, 0.5))
        assert signal_bits(restrict_domain(s, (0.0, 1.0))) == \
            signal_bits(BooleanSignal(0.0, 1.0, np.array([-0.0]), np.array([0.5])))
        s = sig(0.0, 0.0, (0.0, 0.0))
        assert signal_bits(restrict_domain(s, (-0.0, -0.0))) == \
            signal_bits(BooleanSignal(-0.0, -0.0, np.array([-0.0]), np.array([-0.0])))

    def test_restriction_missing_the_intervals(self):
        assert restrict_domain(sig(0, 1, (0.3, 0.9)), (0.95, 1.0)).intervals == ()

    def test_outside_domain_rejected(self):
        with pytest.raises(SclError):
            restrict_domain(sig(0, 1), (-0.5, 0.5))

    def test_nan_bound_rejected(self):
        with pytest.raises(SclError, match=r"restriction \[nan, 0.5\] outside"):
            restrict_domain(sig(0, 1), (math.nan, 0.5))

    def test_nan_time_rejected(self):
        with pytest.raises(SclError, match="time nan outside signal domain"):
            sig(0, 1, (0.2, 0.4)).value_at(math.nan)


def public_records():
    """A signal and verdict from each public producer: ``monitor`` on a
    child with edges in reach and on one without, ``eval_atom``,
    ``from_intervals``, ``restrict_domain`` to a part and to the whole
    domain, ``boolean_not`` and a stream's polls and assembled output.
    Also the evaluator's own records, built without the dataclass
    ``__init__``: its verdicts and their signals on the general path and on
    a steady span, and the pieces of a stream whose polls restart at the
    previous span end."""
    window = parse("<flat[0,1], 0.5> (v >= 0)")
    edged = PiecewiseConstantSignal(("v",), np.array([0.0, 1.0, 2.0]),
                                    np.array([1.0, -1.0, 1.0]), 4.0)
    constant = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([1.0]), 4.0)
    atom = Atom("v", ">=", 0.0)
    verdicts = [monitor(edged, window), monitor(constant, window)] + [
        eval_conv_efficient(FlatKernel(0.0, 1.0), 0.5, eval_atom(trace, atom)).verdict
        for trace in (edged, constant)]
    s = sig(0, 4, (1.0, 2.0), (3.0, 4.0))
    pieces = []
    for values in ((1.0, -1.0, 1.0, 1.0, 1.0), (1.0,) * 5):
        stream = StreamingMonitor(window, ("v",))
        for t, v in enumerate(values):
            stream.push(float(t), [v])
            pieces.append(stream.poll())
        pieces.append(stream.resolved_signal())
    signals = [verdict.signal for verdict in verdicts] + [
        eval_atom(edged, atom, 0.5), s, restrict_domain(s, (0.5, 3.5)),
        restrict_domain(s, s.domain), boolean_not(s),
        *(piece for piece in pieces if piece is not None)]
    return signals, verdicts


class TestPublicRecords:
    """However a signal was built, it keeps the record contract: read-only
    arrays, fields that cannot be assigned, value equality, the dataclass
    repr and keyword construction."""

    def test_arrays_are_read_only(self):
        signals, _ = public_records()
        assert len(signals) > 8
        for s in signals:
            for arr in (s.starts, s.ends):
                with pytest.raises(ValueError, match="read-only"):
                    arr[:] = 0.0

    def test_fields_cannot_be_assigned(self):
        signals, verdicts = public_records()
        for record in signals + verdicts:
            for field in fields(record):
                with pytest.raises(AttributeError):
                    setattr(record, field.name, getattr(record, field.name))

    def test_equality_repr_and_keyword_construction(self):
        signals, verdicts = public_records()
        for s in signals:
            copy = BooleanSignal(start=s.start, end=s.end, starts=s.starts.copy(),
                                 ends=s.ends.copy())
            assert copy == s and repr(copy) == repr(s)
            assert s != BooleanSignal(s.start, s.end + 1.0, s.starts, s.ends)
        for v in verdicts:
            copy = VerdictSignal(signal=v.signal, crossings=v.crossings,
                                 stable_until=v.stable_until)
            assert copy == v and repr(copy) == repr(v)
        s = BooleanSignal(start=0.0, end=2.0, starts=np.array([0.5]), ends=np.array([1.0]))
        assert s == sig(0, 2, (0.5, 1.0))
        assert repr(s) == "BooleanSignal(start=0.0, end=2.0, starts=array([0.5]), ends=array([1.]))"
        assert repr(VerdictSignal(s, (0.5,), 1.5)) == \
            f"VerdictSignal(signal={s!r}, crossings=(0.5,), stable_until=1.5)"

    def test_internal_constructors_fill_every_field(self):
        # a record built without __init__ holds exactly its fields, and an
        # evaluation, unexported, is as frozen as the public records
        signals, verdicts = public_records()
        edged = PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]), np.array([1.0, -1.0]), 3.0)
        evaluations = [eval_conv_efficient(FlatKernel(0.0, 1.0), 0.5,
                                           eval_atom(edged, Atom("v", ">=", 0.0), lo))
                       for lo in (0.0, 1.5)]
        for record in signals + verdicts + evaluations:
            assert list(vars(record)) == [field.name for field in fields(record)]
        for ev in evaluations:
            with pytest.raises(AttributeError):
                ev.quiet = ev.quiet


class TestProperties:
    def test_normalization_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = random_boolean_signal(rng, 0.0, 8.0)
            again = BooleanSignal.from_intervals(s.start, s.end, s.intervals)
            assert again == s

    def test_de_morgan(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = random_boolean_signal(rng, 0.0, 6.0)
            b = random_boolean_signal(rng, 0.0, 6.0)
            derived_and = boolean_not(boolean_or(boolean_not(a), boolean_not(b)))
            assert boolean_not(boolean_or(a, b)) == \
                boolean_and(boolean_not(a), boolean_not(b))
            assert derived_and == boolean_and(a, b)

    def test_degenerate_domain_point(self):
        on = sig(2.0, 2.0, (1.0, 3.0))
        off = sig(2.0, 2.0)
        assert on.value_at(2.0) and not off.value_at(2.0)
        assert boolean_not(on) == off and boolean_not(off) == on


class TestMalformedInput:
    @pytest.mark.parametrize("bad", [
        [(0.1, math.nan)],
        [(math.inf, 0.5)],
        [(-math.inf, 0.5)],
        np.array([[0.1, math.nan]]),
        [(0.1, 0.2, 0.3)],
        [(0.1,)],
        [0.5],
        [(0.1, 0.2), (0.3,)],
        [("a", "b")],
        None,
    ])
    def test_bad_intervals_rejected(self, bad):
        with pytest.raises(SclError, match="interval"):
            BooleanSignal.from_intervals(0.0, 1.0, bad)

    @pytest.mark.parametrize("start, end", [(0.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_domain_rejected(self, start, end):
        with pytest.raises(SclError, match="finite"):
            BooleanSignal.from_intervals(start, end, [])

    def test_reversed_domain_rejected(self):
        with pytest.raises(SclError, match="empty domain"):
            BooleanSignal.from_intervals(1.0, 0.0, [(0.2, 0.4)])


# Bounds on a quarter grid make touching, overlapping, zero-length and
# out-of-domain intervals common; probes sit halfway between grid points,
# so they never meet an interval edge.
_QUARTER = 0.25


@st.composite
def domains(draw):
    lo = draw(st.integers(0, 8)) * _QUARTER
    return lo, lo + draw(st.one_of(st.just(0), st.integers(1, 16))) * _QUARTER


def raw_intervals(lo, hi):
    return st.lists(st.tuples(st.integers(int(lo / _QUARTER) - 4, int(hi / _QUARTER) + 4),
                              st.integers(0, 6))
                    .map(lambda p: (p[0] * _QUARTER, (p[0] + p[1]) * _QUARTER)),
                    max_size=8)


def loop_normalize(start, end, raw):
    """Reference normal form, one interval at a time: the same selections
    as ``from_intervals``, so its bounds must match bit for bit."""
    if start == end:
        return [(start, start)] if any(s <= start <= e for s, e in raw) else []
    merged = []
    for s, e in sorted((max(s, start), min(e, end)) for s, e in raw):
        if e <= s:
            continue
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [tuple(iv) for iv in merged]


def sweep_and(a, b):
    """Reference conjunction: a two-pointer sweep over both interval lists."""
    out, i, j = [], 0, 0
    ia, ib = a.intervals, b.intervals
    while i < len(ia) and j < len(ib):
        out.append((max(ia[i][0], ib[j][0]), min(ia[i][1], ib[j][1])))
        if ia[i][1] <= ib[j][1]:
            i += 1
        else:
            j += 1
    return loop_normalize(a.start, a.end, out)


def probes(lo, hi):
    """The degenerate domain's point, or the midpoints of the quarter grid."""
    if lo == hi:
        return np.array([lo])
    return np.arange(lo + _QUARTER / 2, hi, _QUARTER)


class TestIntervalAlgebraProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_normal_form(self, data):
        lo, hi = data.draw(domains())
        raw = data.draw(raw_intervals(lo, hi))
        s = BooleanSignal.from_intervals(lo, hi, raw)
        assert s.starts.dtype == s.ends.dtype == np.float64
        assert np.all(s.starts >= lo) and np.all(s.ends <= hi)
        if lo == hi:
            assert len(s.starts) == (1 if any(a <= lo <= b for a, b in raw) else 0)
        else:
            assert np.all(s.ends > s.starts)
            assert np.all(s.starts[1:] > s.ends[:-1])
        assert list(s.intervals) == loop_normalize(lo, hi, raw)
        assert BooleanSignal.from_intervals(lo, hi, s.intervals) == s
        ts = probes(lo, hi)
        union = [any(a <= t <= b for a, b in raw) for t in ts.tolist()]
        assert s.values_at(ts).tolist() == union
        assert [s.value_at(t) for t in ts.tolist()] == union

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_boolean_operators_are_pointwise(self, data):
        lo, hi = data.draw(domains())
        a = BooleanSignal.from_intervals(lo, hi, data.draw(raw_intervals(lo, hi)))
        b = BooleanSignal.from_intervals(lo, hi, data.draw(raw_intervals(lo, hi)))
        ts = probes(lo, hi)
        va, vb = a.values_at(ts), b.values_at(ts)
        assert np.array_equal(boolean_not(a).values_at(ts), ~va)
        assert np.array_equal(boolean_or(a, b).values_at(ts), va | vb)
        assert np.array_equal(boolean_and(a, b).values_at(ts), va & vb)
        if lo < hi:
            assert list(boolean_and(a, b).intervals) == sweep_and(a, b)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_arrays_are_read_only(self, data):
        lo, hi = data.draw(domains())
        s = BooleanSignal.from_intervals(lo, hi, data.draw(raw_intervals(lo, hi)))
        for arr in (s.starts, s.ends):
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = 0.0


def assert_normal_form_of(s, start, end, raw):
    """``s`` holds, sign bit for sign bit, what normalising ``raw`` over
    ``[start, end]`` gives."""
    ref = loop_normalize(start, end, raw)
    expected = BooleanSignal(start, end, np.array([a for a, _ in ref], dtype=float),
                             np.array([b for _, b in ref], dtype=float))
    assert signal_bits(s) == signal_bits(expected), (s, ref)


@st.composite
def signed_zero(draw, x):
    """``x``, or -0.0 in place of an ``x`` at or below 0.0."""
    return -0.0 if x <= 0.0 and draw(st.booleans()) else x


@st.composite
def zero_based_domains(draw):
    """Quarter-grid domains starting at or near 0, seldom degenerate."""
    lo = draw(st.integers(0, 2)) * _QUARTER
    return lo, lo + draw(st.integers(0, 16)) * _QUARTER


@st.composite
def normal_signals(draw):
    """A signal normalised from raw quarter-grid pairs; each bound at or
    below 0, of the domain or of a pair, may be -0.0."""
    lo, hi = draw(zero_based_domains())
    raw = [(draw(signed_zero(a)), draw(signed_zero(b)))
           for a, b in draw(raw_intervals(lo, hi))]
    return BooleanSignal.from_intervals(draw(signed_zero(lo)), draw(signed_zero(hi)), raw)


def true_segments(trace, atom):
    """Every segment on which ``atom`` holds, the last ending at the
    duration; a trace of zero duration has one segment, its point."""
    bounds = trace.times.tolist()
    if bounds[-1] < trace.duration:
        bounds.append(trace.duration)
    holds = {">=": float.__ge__, ">": float.__gt__, "<=": float.__le__, "<": float.__lt__}[atom.op]
    values = trace.variable_values(atom.variable).tolist()
    if len(bounds) == 1:
        return [(bounds[0], bounds[0])] if holds(values[0], atom.threshold) else []
    return [(bounds[k], bounds[k + 1]) for k in range(len(bounds) - 1)
            if holds(values[k], atom.threshold)]


class TestDirectNormalForm:
    """Operations on normal signals build their output without
    ``from_intervals``; it must hold the doubles that normalising the pairs
    they stand for gives, -0.0 included."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_restrict_domain(self, data):
        # the new bounds are the domain's, the signal's edges or grid points
        s = data.draw(normal_signals())
        grid = np.arange(0.0, s.end + _QUARTER, _QUARTER).tolist()
        inside = [s.start, s.end] + s.starts.tolist() + s.ends.tolist() + \
            [x for x in grid if s.start <= x <= s.end]
        lo, hi = sorted(data.draw(signed_zero(data.draw(st.sampled_from(inside))))
                        for _ in range(2))
        assert_normal_form_of(restrict_domain(s, (lo, hi)), lo, hi, s.intervals)

    @settings(max_examples=200, deadline=None)
    @given(s=normal_signals())
    def test_boolean_not(self, s):
        if s.start == s.end:
            gaps = [] if s.intervals else [(s.start, s.end)]
        else:
            edges = [s.start] + [x for iv in s.intervals for x in iv] + [s.end]
            gaps = list(zip(edges[0::2], edges[1::2]))
        assert_normal_form_of(boolean_not(s), s.start, s.end, gaps)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), case=plateau_traces(negative_zero=True),
           op=st.sampled_from([">=", ">", "<=", "<"]))
    def test_eval_atom(self, data, case, op):
        # a span start of -0.0 keeps its sign bit as the domain's start
        trace, lo = case
        lo = data.draw(signed_zero(lo))
        atom = Atom("v", op, 0.0)
        assert_normal_form_of(eval_atom(trace, atom, lo), lo, trace.duration,
                              true_segments(trace, atom))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_alternating(self, data):
        # flips on the quarter grid coincide with each other and with both
        # ends; they lie in the span, as every root the evaluator flips at
        # lies in one of its cells
        lo, hi = data.draw(zero_based_domains())
        steps = data.draw(st.lists(st.integers(int(lo / _QUARTER), int(hi / _QUARTER)),
                                   max_size=8))
        flips = [data.draw(signed_zero(k * _QUARTER)) for k in sorted(steps)]
        t0, t_end = data.draw(signed_zero(lo)), data.draw(signed_zero(hi))
        first = data.draw(st.booleans())
        cuts = ([t0] + flips + [t_end])[0 if first else 1:]
        pairs = list(zip(cuts[0::2], cuts[1::2]))
        assert_normal_form_of(_alternating(t0, t_end, first, np.array(flips, dtype=float)),
                              t0, t_end, pairs)


def pair_bits(pairs) -> bytes:
    return np.array(pairs, dtype=float).reshape(-1, 2).tobytes()


class TestVerdictSegments:
    """The CLI's verdict segments come from the signal's own bounds."""

    @settings(max_examples=300, deadline=None)
    @given(s=normal_signals())
    def test_partition_of_the_domain(self, s):
        segments = _verdict_segments(s)
        if s.start == s.end:
            # the degenerate domain is its one segment, true when its point is
            assert pair_bits([segments[0][:2]]) == pair_bits([(s.start, s.end)])
            assert segments == [(s.start, s.end, bool(s.intervals))]
            return
        starts, ends, truths = (list(x) for x in zip(*segments))
        assert starts[0] == s.start and ends[-1] == s.end
        # no gap: each segment starts on the double the previous one ends on
        assert np.array(starts[1:]).tobytes() == np.array(ends[:-1]).tobytes()
        assert all(a != b for a, b in zip(truths, truths[1:]))
        assert all(b > a for a, b in zip(starts, ends))
        # the true segments are the intervals and the false ones their
        # complement, bit for bit
        assert pair_bits([(a, b) for a, b, t in segments if t]) == pair_bits(s.intervals)
        assert pair_bits([(a, b) for a, b, t in segments if not t]) == \
            pair_bits(boolean_not(s).intervals)


class TestPiecewiseConstantSignal:
    def test_first_sample_must_be_zero(self):
        with pytest.raises(TraceError, match="time 0"):
            PiecewiseConstantSignal(("v",), np.array([1.0]), np.array([[2.0]]), 2.0)
        # a first time of -0.0 is stored as 0.0, in a copy of the caller's array
        times = np.array([-0.0, 1.0])
        trace = PiecewiseConstantSignal(("v",), times, np.array([[1.0], [2.0]]), 2.0)
        assert not np.signbit(trace.times[0]) and np.signbit(times[0])

    def test_strictly_increasing_times(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            PiecewiseConstantSignal(
                ("v",), np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)), 2.0)

    def test_no_samples_rejected(self):
        with pytest.raises(TraceError, match="at least one sample"):
            PiecewiseConstantSignal(("v",), np.array([]), np.zeros((0, 1)), 1.0)

    def test_non_finite_entry_rejected(self):
        with pytest.raises(TraceError, match="non-finite"):
            PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]), np.array([[1.0], [math.nan]]), 2.0)

    def test_value_shape_mismatch_rejected(self):
        with pytest.raises(TraceError, match=r"shape \(2, 2\) does not match"):
            PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]), np.zeros((2, 2)), 2.0)

    def test_int_duration_gives_float_domain_ends(self):
        # the duration is a float from construction on, so an atom's verdict
        # ends at 4.0 as a window's ends at 3.0, not at the int 4
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]),
                                        np.array([[1.0], [-1.0]]), 4)
        assert type(trace.duration) is float
        atom = monitor(trace, parse("v >= 0")).signal
        window = monitor(trace, parse("<flat[0,1],0.5> (v >= 0)")).signal
        assert repr(atom) == \
            "BooleanSignal(start=0.0, end=4.0, starts=array([0.]), ends=array([1.]))"
        assert repr(window) == \
            "BooleanSignal(start=0.0, end=3.0, starts=array([0.]), ends=array([0.5]))"

    def test_duration_must_be_a_number(self):
        with pytest.raises(TraceError, match="duration must be a number, got None"):
            PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), None)

    def test_duration_before_last_sample_rejected(self):
        with pytest.raises(TraceError, match="shorter than last sample time"):
            PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]), np.zeros((2, 1)), 0.5)

    def test_one_dimensional_values_are_one_column(self):
        t = PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]), np.array([3.0, 4.0]), 2.0)
        assert t.values.shape == (2, 1) and t.value_at(1.5, "v") == 4.0

    def test_right_continuous_lookup(self):
        t = PiecewiseConstantSignal(
            ("v",), np.array([0.0, 10.0, 20.0]),
            np.array([[50.0], [80.0], [60.0]]), 25.0)
        assert t.value_at(0.0, "v") == 50.0
        assert t.value_at(9.999, "v") == 50.0
        assert t.value_at(10.0, "v") == 80.0
        assert t.value_at(25.0, "v") == 60.0

    def test_pointwise_sampling_matches_membership(self):
        rng = np.random.default_rng(23)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0, 10, 40)), [10.0]])
        times = np.unique(times)
        vals = rng.uniform(-1, 1, (len(times), 1))
        # the last sample, at the duration, holds for no time: its value's
        # sign must not be what the duration reads
        vals[-1] = -vals[-2]
        trace = PiecewiseConstantSignal(("v",), times, vals, 10.0)

        from sclmon import Atom, eval_atom
        atom = Atom("v", ">=", 0.0)
        truth = eval_atom(trace, atom)
        ts = np.append(rng.uniform(0, 10, 10_000), 10.0)
        member = truth.values_at(ts)
        direct = np.array([trace.value_at(t, "v") >= 0.0 for t in ts])
        # inner boundary times are measure-zero; random samples never hit them
        assert np.array_equal(member, direct)

    def test_unknown_variable(self):
        t = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 1.0)
        with pytest.raises(SclError, match="unknown variable"):
            t.value_at(0.0, "w")

    def test_nan_time_rejected(self):
        t = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 1.0)
        with pytest.raises(SclError, match="time nan outside trace domain"):
            t.value_at(math.nan, "v")


class TestSortedUnique:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                                     st.floats(-1e6, 1e6)), max_size=30))
    def test_equals_numpy_unique(self, values):
        x = np.array(values, dtype=float)
        got, expected = sorted_unique(x), np.unique(x)
        assert got.tobytes() == expected.tobytes()
