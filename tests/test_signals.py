"""Interval algebra: normalization, Boolean combinations, restriction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmon import (
    BooleanSignal,
    PiecewiseConstantSignal,
    SclError,
    TraceError,
    boolean_and,
    boolean_not,
    boolean_or,
    restrict_domain,
)
from conftest import random_boolean_signal


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

    def test_restriction_missing_the_intervals(self):
        assert restrict_domain(sig(0, 1, (0.3, 0.9)), (0.95, 1.0)).intervals == ()

    def test_outside_domain_rejected(self):
        with pytest.raises(SclError):
            restrict_domain(sig(0, 1), (-0.5, 0.5))


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


class TestPiecewiseConstantSignal:
    def test_first_sample_must_be_zero(self):
        with pytest.raises(TraceError, match="time 0"):
            PiecewiseConstantSignal(("v",), np.array([1.0]), np.array([[2.0]]), 2.0)

    def test_strictly_increasing_times(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            PiecewiseConstantSignal(
                ("v",), np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)), 2.0)

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
        times = np.concatenate([[0.0], np.sort(rng.uniform(0, 10, 40))])
        times = np.unique(times)
        vals = rng.uniform(-1, 1, (len(times), 1))
        trace = PiecewiseConstantSignal(("v",), times, vals, 10.0)

        from sclmon import Atom, eval_atom
        atom = Atom("v", ">=", 0.0)
        truth = eval_atom(trace, atom)
        ts = rng.uniform(0, 10, 10_000)
        member = truth.values_at(ts)
        direct = np.array([trace.value_at(t, "v") >= 0.0 for t in ts])
        # boundary times are measure-zero; random samples never hit them
        assert np.array_equal(member, direct)

    def test_unknown_variable(self):
        t = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 1.0)
        with pytest.raises(SclError, match="unknown variable"):
            t.value_at(0.0, "w")
