"""Online monitoring: push/poll resolution and exact offline equivalence."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmon import (
    Conv,
    ConvDual,
    HorizonError,
    PiecewiseConstantSignal,
    SclError,
    StreamingMonitor,
    TraceError,
    generate_glucose_like,
    horizon,
    monitor,
    parse,
)
from sclmon.formula import evaluable_end
from conftest import signal_bits


def feed_and_collect(formula, trace, poll_every=1):
    """Push sample-by-sample, polling as we go; return the assembled signal."""
    sm = StreamingMonitor(formula, trace.variables)
    for i, (t, row) in enumerate(zip(trace.times, trace.values)):
        sm.push(float(t), row)
        if (i + 1) % poll_every == 0:
            sm.poll()
    sm.finish(trace.duration)
    sm.poll()
    return sm.resolved_signal()


def random_trace(rng, duration, n=25):
    times = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, duration, n - 1))]))
    values = rng.uniform(-1, 1, (len(times), 1))
    return PiecewiseConstantSignal(("v",), times, values, duration)


class TestResolutionRule:
    def test_verdicts_resolve_up_to_known_minus_window(self):
        f = parse("<flat[0,4], 0.5> (v >= 0)")
        sm = StreamingMonitor(f, ("v",))
        for t in np.arange(0.0, 10.5, 1.0):
            sm.push(float(t), [1.0])
        piece = sm.poll()
        assert piece is not None
        assert piece.domain == (0.0, 6.0)
        assert piece.value_at(3.0)

    def test_no_samples_no_output(self):
        sm = StreamingMonitor(parse("<flat[0,1], 0.5> (v >= 0)"), ("v",))
        assert sm.poll() is None
        assert sm.resolved_signal() is None

    def test_whole_trace_then_poll_equals_offline(self):
        rng = np.random.default_rng(97)
        f = parse("<flat[0,1], 0.4> (v >= 0)")
        for _ in range(20):
            trace = random_trace(rng, duration=5.0)
            sm = StreamingMonitor(f, ("v",))
            for t, row in zip(trace.times, trace.values):
                sm.push(float(t), row)
            sm.finish(trace.duration)
            sm.poll()
            assert sm.resolved_signal() == monitor(trace, f).signal

    def test_insufficient_horizon_resolves_nothing(self):
        sm = StreamingMonitor(parse("<flat[0,8], 0.5> (v >= 0)"), ("v",))
        sm.push(0.0, [1.0])
        sm.push(2.0, [1.0])
        assert sm.poll() is None


class TestOrderingErrors:
    def test_out_of_order_rejected(self):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        sm.push(2.0, [1.0])
        with pytest.raises(TraceError, match="out-of-order"):
            sm.push(1.0, [1.0])

    def test_duplicate_rejected(self):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        with pytest.raises(TraceError, match="duplicate"):
            sm.push(0.0, [2.0])

    def test_first_sample_at_zero(self):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        with pytest.raises(TraceError, match="time 0"):
            sm.push(1.0, [1.0])
        # a first time of -0.0 is stored as 0.0, so no bound carries its sign
        sm.push(-0.0, [1.0])
        sm.push(1.0, [1.0])
        sm.finish()
        sm.poll()
        assert not np.signbit(sm.resolved_signal().starts).any()

    def test_unknown_variable_rejected(self):
        with pytest.raises(SclError, match="variables"):
            StreamingMonitor(parse("w >= 0"), ("v",))

    def test_repeated_variable_rejected(self):
        with pytest.raises(TraceError, match="repeated variable name"):
            StreamingMonitor(parse("G >= 100"), ("G", "G"))

    @pytest.mark.parametrize("time, value", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf),
    ])
    def test_non_finite_sample_rejected_and_not_stored(self, time, value):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        with pytest.raises(TraceError, match="non-finite sample"):
            sm.push(time, [value])
        # the stream is untouched: it takes the next sample and still polls
        sm.push(2.0, [-1.0])
        sm.finish()
        assert sm.poll() is not None
        assert sm.resolved_signal().intervals == ((0.0, 2.0),)

    @pytest.mark.parametrize("time, values", [
        (1.0, ["abc"]), (1.0, 5), ("x", [1.0]), (1.0, [None]), (1.0, "5"),
    ])
    def test_non_numeric_sample_rejected_and_not_stored(self, time, values):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        with pytest.raises(TraceError, match=f"sample at time {time!r}"):
            sm.push(time, values)
        sm.push(2.0, [-1.0])
        sm.finish()
        assert sm.poll() is not None
        assert sm.resolved_signal().intervals == ((0.0, 2.0),)

    def test_push_after_finish_rejected(self):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        sm.finish()
        with pytest.raises(SclError, match="already finished"):
            sm.push(1.0, [1.0])

    def test_second_finish_rejected(self):
        # a shorter second duration would end the trace before the span the
        # last poll emitted to
        f = parse("<flat[0,1], 0.5> (v >= 0)")
        sm = StreamingMonitor(f, ("v",))
        for t in range(4):
            sm.push(float(t), [1.0])
        sm.finish(10.0)
        assert sm.poll().domain == (0.0, 9.0)
        for duration in (5.0, 10.0, 12.0, None):
            with pytest.raises(SclError, match="stream already finished"):
                sm.finish(duration)
        assert sm.poll() is None
        assert sm.resolved_signal() == monitor(
            PiecewiseConstantSignal(("v",), np.arange(4.0), np.ones((4, 1)), 10.0), f).signal

    def test_wrong_row_length_rejected(self):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        with pytest.raises(TraceError, match="2 values for 1 variables"):
            sm.push(0.0, [1.0, 2.0])

    def test_finish_on_empty_stream_rejected(self):
        with pytest.raises(SclError, match="empty stream"):
            StreamingMonitor(parse("v >= 0"), ("v",)).finish()

    def test_duration_before_last_sample_rejected(self):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        sm.push(2.0, [1.0])
        with pytest.raises(TraceError, match="precedes last sample"):
            sm.finish(1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, "x", [1.0]])
    def test_non_finite_duration_rejected(self, duration):
        sm = StreamingMonitor(parse("v >= 0"), ("v",))
        sm.push(0.0, [1.0])
        with pytest.raises(TraceError, match="duration must be finite"):
            sm.finish(duration)
        sm.finish(1.0)
        assert sm.poll() is not None


class TestOfflineEquivalence:
    FORMULAS = [
        "<flat[0,1], 0.4> (v >= 0)",
        "<exp(2)[0,1.5], 0.6> (v >= 0.2)",
        "<exp(-1.5)[0.2,1.2], 0.3>* (v <= 0)",
        "G[0,0.8] (v >= -0.5) | F[0,1.2] (v >= 0.9)",
        "<gauss(0.5, 0.3)[0,1], 0.5> (v >= 0)",
        "<gauss(0.2, 0.1)[0.1,1.3], 0.3>* (v <= 0)",
    ]

    @pytest.mark.parametrize("text", FORMULAS)
    def test_sample_by_sample_equals_offline_exactly(self, text):
        rng = np.random.default_rng(101)
        f = parse(text)
        for _ in range(25):
            trace = random_trace(rng, duration=4.0 + rng.uniform(0, 2))
            got = feed_and_collect(f, trace)
            expected = monitor(trace, f).signal
            assert got == expected  # exact: same floats, same intervals

    @pytest.mark.parametrize("inner, count", [
        ("<flat[0,1],0.4>", 40),
        ("<gauss(0.5,0.2)[0,1],0.4>", 13),
    ])
    def test_nested_window_early_polls(self, inner, count):
        # on early polls the outer window holds the verdict back below its
        # start; such a poll resolves nothing instead of raising
        rng = np.random.default_rng(5)
        f = parse(f"G[0,0.5] ({inner} (v >= 0))")
        for _ in range(count):
            trace = random_trace(rng, 5.0)
            assert feed_and_collect(f, trace) == monitor(trace, f).signal

    def test_nested_stream_ends_where_offline_ends(self):
        # the monitor ends G[0,u2] (<flat[0,u1]> ...) at (D - u1) - u2, which
        # need not be D - (u1 + u2): u1 = 0.24, u2 = 0.39, D = 2.76 ends at
        # 2.1299999999999994, not 2.13
        rng = np.random.default_rng(11)
        cases = [(0.24, 0.39, 2.76)] + [
            (round(float(a), 2), round(float(b), 2), round(float(d), 2))
            for a, b, d in rng.uniform((0.05, 0.05, 2.1), (1.0, 1.0, 4.0), (9, 3))]
        for u1, u2, duration in cases:
            f = parse(f"G[0,{u2}] (<flat[0,{u1}], 0.5> (v > 0))")
            trace = random_trace(rng, duration, 15)
            assert feed_and_collect(f, trace) == monitor(trace, f).signal

    def test_poll_cadence_does_not_matter(self):
        rng = np.random.default_rng(103)
        f = parse("<flat[0,1], 0.5> (v >= 0)")
        for cadence in (1, 3, 7):
            trace = random_trace(rng, duration=5.0)
            got = feed_and_collect(f, trace, poll_every=cadence)
            assert got == monitor(trace, f).signal

    def test_rising_exponential_window_is_prefix_exact(self):
        rng = np.random.default_rng(107)
        f = parse("<exp(1.5)[0,1], 0.5> (v >= 0)")
        for _ in range(10):
            trace = random_trace(rng, duration=4.5)
            assert feed_and_collect(f, trace) == monitor(trace, f).signal

    @pytest.mark.parametrize("text", [
        "G[0,1] (v >= 0.5)",                # full-coverage plateaus (quiet: H exactly 1)
        "<flat[0,2], 0.5> (v >= 0.5)",      # H sits exactly on the threshold
        "<flat[0,2], 0.5>* (v >= 0.5)",     # strict version of the same plateau
    ])
    def test_threshold_plateaus_stay_prefix_exact(self, text):
        # duty-0.5 square wave: every 2-unit window is covered exactly 50%
        f = parse(text)
        times = np.arange(0.0, 12.5, 0.5)
        values = np.where((times % 2.0) < 1.0, 1.0, 0.0).reshape(-1, 1)
        trace = PiecewiseConstantSignal(("v",), times, values, 12.0)
        sm = StreamingMonitor(f, ("v",))
        for t, row in zip(times, values):
            sm.push(float(t), row)
            sm.poll()
        sm.finish(trace.duration)
        sm.poll()
        assert sm.resolved_signal() == monitor(trace, f).signal

    def test_last_gaussian_substep_is_held_back(self):
        # the false dip near t = 2.77 lies in the stretch [2.04, 3.0]; while
        # that is the last stretch of the known prefix its crossings are held
        # back, and once it is complete both are emitted as offline
        times = np.round(np.arange(0.0, 5.0001, 0.01), 10)
        v = np.where((times >= 3.0) & (times < 3.04), -1.0, 1.0).reshape(-1, 1)
        trace = PiecewiseConstantSignal(("v",), times, v, 5.0)
        f = parse("<gauss(0.25, 0.02)[0,1], 0.5> (v >= 0)")
        expected = monitor(trace, f)
        assert len(expected.crossings) == 2
        assert feed_and_collect(f, trace) == expected.signal

    def test_last_substep_ends_exactly_at_stretch_end(self):
        # 5-minute CGM pitch: t + (stretch_end - t) falls an ulp short of
        # stretch_end here, which once left false slivers at poll boundaries
        times = np.arange(151) / 12
        g = np.where((times >= 2.0) & (times < times[32]), 60.0, 100.0)
        trace = PiecewiseConstantSignal(("G",), times, g.reshape(-1, 1), float(times[-1]))
        f = parse("<flat[0,1], 0.8> (G >= 70)")
        sm = StreamingMonitor(f, ("G",))
        for t, row in zip(times, trace.values):
            sm.push(float(t), row)
            sm.poll()
        sm.finish(trace.duration)
        sm.poll()
        assert sm.resolved_signal() == monitor(trace, f).signal


STREAM_FORMULAS = [
    "<flat[0,1], 0.4> (v >= 0)",
    "<exp(2)[0,1.5], 0.6> (v >= 0.5)",
    "<exp(-1.5)[0.25,1.25], 0.3>* (v <= 0)",
    "<gauss(0.5, 0.3)[0,1], 0.5> (v >= 0)",
    "G[0,0.75] (v >= -0.5) | F[0,1] (v >= 0.5)",
    "G[0,0.5] (<flat[0,1], 0.5> (v > 0))",
    "!<flat[0.25,1], 0.5> (v < 0) & G[0,1] (v >= -1)",
    "<flat[0,0.5], 0.5> (<exp(1)[0,1], 0.25> (v >= 0))",
]


@st.composite
def stream_cases(draw):
    """A trace on [0, duration] whose times and values sit on coarse grids as
    often as not (so coverage meets thresholds exactly and windows meet edges
    at shared times), a formula, and after each sample whether to poll."""
    n = draw(st.integers(2, 40))
    steps = draw(st.lists(st.one_of(st.sampled_from([0.125, 0.25, 0.5]),
                                    st.floats(0.01, 0.6)), min_size=n - 1, max_size=n - 1))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    values = draw(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                     st.floats(-1.5, 1.5)), min_size=n, max_size=n))
    duration = float(times[-1]) + draw(st.sampled_from([0.0, 0.25, 1.0]))
    trace = PiecewiseConstantSignal(("v",), times, np.array(values).reshape(-1, 1), duration)
    polls = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return parse(draw(st.sampled_from(STREAM_FORMULAS))), trace, polls


class TestRestartedPolls:
    """A poll evaluates from where it last emitted, each window node from its
    restart point; the output stays the offline verdict bit for bit, and
    each poll emits all that its prefix's horizon lets it, at every p."""

    @settings(max_examples=80, deadline=None)
    @given(case=stream_cases())
    def test_any_poll_cadence_equals_offline(self, case):
        f, trace, polls = case
        try:
            expected = monitor(trace, f).signal
        except HorizonError:
            return
        sm = StreamingMonitor(f, ("v",))
        for t, row, poll in zip(trace.times.tolist(), trace.values.tolist(), polls):
            sm.push(t, row)
            if poll:
                sm.poll()
                try:
                    end = evaluable_end(f, t)
                except HorizonError:
                    continue
                assert sm.resolved_signal().end == end
        sm.finish(trace.duration)
        sm.poll()
        assert sm.resolved_signal() == expected

    def test_a_gaussian_stream_narrows_each_crossing_at_most_twice(self, monkeypatch):
        """A busy last stretch is solved again from its start on each poll,
        but a crossing's bracket is narrowed to the double only where the
        verdict wants its root: one lying past the stretch's end, or before
        the poll's start, stops after a round.  So the stream narrows about
        as many brackets to the double as the offline run has crossings,
        twice for one lying exactly on a poll's end, where the next starts."""
        monitor_module = importlib.import_module("sclmon.monitor")
        narrow = monitor_module._narrow
        wanted, early = [], []

        def spy(positive_at, lo, hi, lo_positive, after=-np.inf, upto=np.inf):
            rounds = np.zeros(len(lo), dtype=int)

            def counted(xs, rows):
                rounds[rows] += 1
                return positive_at(xs, rows)
            roots = narrow(counted, lo, hi, lo_positive, after, upto)
            inside = (roots >= after) & (roots <= upto)
            wanted.append(int(np.count_nonzero(inside)))
            early.extend(rounds[~inside].tolist())
            return roots

        monkeypatch.setattr(monitor_module, "_narrow", spy)
        f = parse("<gauss(0.5,0.3)[0,1],0.5> (G >= 120)")
        trace = generate_glucose_like(0, duration=24.5)
        offline = monitor(trace, f)
        assert sum(wanted) == len(offline.crossings) == 4
        wanted.clear()
        sm = StreamingMonitor(f, trace.variables)
        for t, row in zip(trace.times.tolist(), trace.values.tolist()):
            sm.push(t, row)
            sm.poll()
        sm.finish()
        sm.poll()
        assert sm.resolved_signal() == offline.signal
        assert sum(wanted) <= 2 * len(offline.crossings)
        assert early and max(early) <= 1

    def test_full_coverage_window_emits_as_it_goes(self):
        # H sits on p = 1, which it cannot pass: nothing there is
        # threshold-delicate, so G emits at the same lag as any window
        for text in ("G[0,1] (v >= 0)", "<flat[0,1], 0.5> (v >= 0)", "F[0,1] (v < 0)"):
            sm = StreamingMonitor(parse(text), ("v",))
            for t in range(11):
                sm.push(float(t), [1.0])
                sm.poll()
            assert sm.resolved_signal().domain == (0.0, 9.0), text

    def test_short_prefix_poll_evaluates_nothing(self, monkeypatch):
        streaming = importlib.import_module("sclmon.streaming")

        def evaluate(*args, **kwargs):
            raise AssertionError("a poll short of the horizon evaluated the formula")

        monkeypatch.setattr(streaming, "_eval_node", evaluate)
        sm = StreamingMonitor(parse("<flat[0,1], 0.8> (G >= 70)"), ("G",))
        sm.push(0.0, [100.0])
        sm.push(0.5, [100.0])
        assert sm.poll() is None


EDGE_AT_END_FORMULAS = [
    "<flat[0,1], 0>* (v >= 0)",
    "<flat[0,1], 0.5> (v >= 0)",
    "<flat[0,1], 1> (v >= 0)",
    "<exp(-1.5)[0.25,1.25], 0>* (v >= 0)",
    "<exp(2)[0,1], 0.5> (v >= 0)",
    "<exp(-1)[0,1.5], 1> (v >= 0)",
    "<gauss(0.5, 0.3)[0,1], 0>* (v >= 0)",
    "<gauss(0.5, 0.3)[0,1], 0.5> (v >= 0)",
    "<gauss(0.25, 0.2)[0.25,1], 1> (v >= 0)",
    "F[0,0.5] (G[0,1] (v >= 0))",
    "G[0,0.5] (<flat[0,1], 0.5> (v >= 0))",
]


def run_trace(pitch, runs, true_first, extra=0.0):
    """Samples every ``pitch`` on which ``v >= 0`` holds for runs of
    ``runs`` samples each, alternately true (``v`` 1 or, on the threshold,
    0) and false, and which ends ``extra`` after its last sample."""
    n = sum(runs)
    truth = np.repeat((np.arange(len(runs)) % 2 == 0) == true_first, runs)
    values = np.where(truth, np.where(np.arange(n) % 3 == 0, 0.0, 1.0), -1.0)
    times = np.arange(n) * pitch
    return PiecewiseConstantSignal(("v",), times, values.reshape(-1, 1), float(times[-1]) + extra)


@st.composite
def edge_at_end_cases(draw):
    """A run trace on a coarse or a CGM pitch, and a formula."""
    pitch = draw(st.sampled_from([0.125, 0.25, 1.0 / 12.0, 0.3]))
    runs = draw(st.lists(st.integers(1, 16), min_size=2, max_size=6))
    trace = run_trace(pitch, runs, draw(st.booleans()), draw(st.sampled_from([0.0, 0.25, 1.0])))
    return parse(draw(st.sampled_from(EDGE_AT_END_FORMULAS))), trace


class TestEdgeAtPreviousEnd:
    """A poll after one that emitted all it evaluated restarts a window node
    at its previous span end.  Polled after every push, a sample that flips
    the child lands a new child edge at the previous duration, so its enter
    event ``duration - upper`` sits exactly on that span end, which is then
    an event of the longer trace.  The stream still equals offline
    ``monitor`` bit for bit."""

    @staticmethod
    def stream(f, trace):
        """The resolved signal of a push and poll per sample, and the number
        of polls whose root window restarted at its previous span end,
        in all and right after the child flipped at the previous duration."""
        sm = StreamingMonitor(f, ("v",))
        truth = trace.values[:, 0] >= 0.0
        at_end = on_edge = 0
        for i, (t, row) in enumerate(zip(trace.times.tolist(), trace.values.tolist())):
            sm.push(t, row)
            restart, lo = sm._restarts.get(()), sm._emitted_to
            end = restart.bounds[-1] if restart is not None else None
            sm.poll()
            if lo is not None and lo == end == restart.at:
                at_end += 1
                on_edge += bool(i >= 2 and truth[i - 1] != truth[i - 2])
        sm.finish(trace.duration)
        sm.poll()
        return sm.resolved_signal(), at_end, on_edge

    @pytest.mark.parametrize("text", EDGE_AT_END_FORMULAS)
    def test_cgm_runs_restart_on_the_new_edge(self, text):
        f = parse(text)
        trace = run_trace(1.0 / 12.0, [30, 1, 2, 13, 30, 5, 24, 12, 40], True, 0.25)
        got, at_end, on_edge = self.stream(f, trace)
        assert signal_bits(got) == signal_bits(monitor(trace, f).signal)
        assert at_end > 0
        if not isinstance(f.child, (Conv, ConvDual)):
            assert on_edge > 0

    @settings(max_examples=80, deadline=None)
    @given(case=edge_at_end_cases())
    def test_stream_equals_offline_bit_for_bit(self, case):
        f, trace = case
        try:
            expected = monitor(trace, f).signal
        except HorizonError:
            return
        got, _, _ = self.stream(f, trace)
        assert signal_bits(got) == signal_bits(expected)


class TestBoundedPolls:
    """A poll reads the trace from its restart points on, not from 0."""

    PITCH = 1.0 / 12.0
    SAMPLES = 4 * 24 * 12 + 1          # four days at a five-minute pitch

    @staticmethod
    def reads(monkeypatch, f, times, values):
        """Per poll, the most samples any atom read and the longest span of
        the trace they cover, from the first sample read to the end."""
        monitor_module = importlib.import_module("sclmon.monitor")
        eval_atom = monitor_module.eval_atom
        counts, spans = [], []

        def spy(trace, atom, lo=0.0):
            side = "right" if lo < trace.duration else "left"
            first = max(int(np.searchsorted(trace.times, lo, side=side)) - 1, 0)
            counts[-1] = max(counts[-1], len(trace.times) - first)
            spans[-1] = max(spans[-1], trace.duration - trace.times[first])
            return eval_atom(trace, atom, lo)

        monkeypatch.setattr(monitor_module, "eval_atom", spy)
        sm = StreamingMonitor(f, ("G",))
        for t, v in zip(times.tolist(), values.tolist()):
            sm.push(t, [v])
            counts.append(0)
            spans.append(0.0)
            sm.poll()
        sm.finish()
        sm.poll()
        return np.array(counts), np.array(spans), sm.resolved_signal()

    @pytest.mark.parametrize("pattern", ["every sample", "every third", "never"])
    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.4> (G >= 70)",
        "G[0,1] (G >= 50)",
        "<exp(-1)[0,1], 0.4> (G >= 70)",
    ])
    def test_four_day_poll_reads_horizon_plus_two_pitches(self, monkeypatch, pattern, text):
        # the child flips at every sample, at every third, or never: each
        # poll restarts at most a horizon and two pitches before the end,
        # which holds (horizon + 2 pitches) / pitch samples after it.  The
        # atom also reads the sample in force at the restart point, and a
        # restart point t - upper can round to just below a sample time,
        # which puts one more sample in force there
        f = parse(text)
        times = np.arange(self.SAMPLES) * self.PITCH
        period = {"every sample": 2, "every third": 3, "never": 1}[pattern]
        values = np.where(np.arange(self.SAMPLES) % period == 0, 200.0, 60.0)
        counts, spans, resolved = self.reads(monkeypatch, f, times, values)
        trace = PiecewiseConstantSignal(("G",), times, values.reshape(-1, 1), float(times[-1]))
        assert resolved == monitor(trace, f).signal
        after_first_day = slice(24 * 12, None)
        bound = (horizon(f) + 2 * self.PITCH) / self.PITCH
        assert counts[after_first_day].max() <= math.floor(bound + 1e-9) + 2
        assert spans[after_first_day].max() <= horizon(f) + 3 * self.PITCH + 1e-9

    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.8> (G >= 70)",
        "<exp(-1)[0,2], 0.9> (G <= 180)",
        "G[0,2] (<flat[0,1], 0.5> (G >= 100))",
    ])
    def test_glucose_stream_reads_do_not_grow(self, monkeypatch, text):
        # on a glucose-like trace a stretch whose windows hold a child edge
        # can be up to a window width long, so a window node may restart that
        # much further back; a poll then reads at most a horizon, the window
        # widths (here the horizon again) and three pitches, on the fourth
        # day as on the second
        trace = generate_glucose_like(3, duration=4 * 24.5)
        f = parse(text)
        _, spans, resolved = self.reads(monkeypatch, f, trace.times, trace.values[:, 0])
        assert resolved == monitor(trace, f).signal
        day = 24 * 12
        assert spans[day:].max() <= 2 * horizon(f) + 3 * self.PITCH + 1e-9
        assert spans[-day:].max() <= spans[day:2 * day].max() + 1e-9


class TestSteadyPolls:
    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.8> (G >= 70)",
        "<exp(-1)[0,2], 0.9> (G <= 180)",
        "G[0,2] (<flat[0,1], 0.5> (G >= 100))",
    ])
    def test_steady_poll_normalises_nothing(self, monkeypatch, text):
        # every operation of a poll gets normal signals and builds its normal
        # output directly, so once output flows nothing is normalised again
        signals = importlib.import_module("sclmon.signals")
        normalise = signals.BooleanSignal.from_intervals
        calls = []

        def spy(*args):
            calls.append(args)
            return normalise(*args)

        monkeypatch.setattr(signals.BooleanSignal, "from_intervals", staticmethod(spy))
        trace = generate_glucose_like(3, duration=24.5)
        sm = StreamingMonitor(parse(text), trace.variables)
        emits = 0
        for t, row in zip(trace.times.tolist(), trace.values.tolist()):
            sm.push(t, row)
            if sm.poll() is not None:
                emits += 1
                if emits == 1:
                    calls.clear()
        assert emits > 100 and calls == []

    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.8> (G >= 0)",
        "<exp(-1)[0,2], 0.9> (G <= 1000)",
        "<gauss(0.5, 0.3)[0,1], 0.5> (G < 0)",
    ])
    def test_constant_child_takes_no_window_integral(self, monkeypatch, text):
        # a child with no truth edge in the windows' reach is one stretch
        # whose H is exactly 0 or 1, decided without a window integral
        monitor_module = importlib.import_module("sclmon.monitor")
        grid_integrals = monitor_module._grid_integrals
        calls = []

        def spy(*args):
            calls.append(args)
            return grid_integrals(*args)

        monkeypatch.setattr(monitor_module, "_grid_integrals", spy)
        trace = generate_glucose_like(3, duration=24.5)
        sm = StreamingMonitor(parse(text), trace.variables)
        emits = 0
        for t, row in zip(trace.times.tolist(), trace.values.tolist()):
            sm.push(t, row)
            if sm.poll() is not None:
                emits += 1
                if emits == 1:
                    calls.clear()
        assert emits > 100 and calls == []
        sm.finish()
        sm.poll()
        assert sm.resolved_signal() == monitor(trace, parse(text)).signal

    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.8> (G >= 70)",
        "<exp(-1)[0,2], 0.9> (G <= 180)",
        "G[0,2] (<flat[0,1], 0.5> (G >= 100))",
    ])
    def test_steady_poll_cuts_nothing(self, monkeypatch, text):
        # a poll whose window nodes all took the steady span restarted each
        # at the span end it last emitted to, so no verdict needs a cut
        monitor_module = importlib.import_module("sclmon.monitor")
        restrict, steady = monitor_module.restrict_domain, monitor_module._steady
        cuts, spans = [], []

        def restrict_spy(*args):
            cuts.append(args)
            return restrict(*args)

        def steady_spy(*args):
            ev = steady(*args)
            spans[-1] = ev is not None
            return ev

        def evaluate_spy(*args):
            spans.append(False)             # until _steady takes the span
            return evaluate(*args)

        evaluate = monitor_module.eval_conv_efficient
        monkeypatch.setattr(monitor_module, "restrict_domain", restrict_spy)
        monkeypatch.setattr(monitor_module, "_steady", steady_spy)
        monkeypatch.setattr(monitor_module, "eval_conv_efficient", evaluate_spy)
        trace = generate_glucose_like(3, duration=24.5)
        sm = StreamingMonitor(parse(text), trace.variables)
        steady_polls = emits = 0
        for t, row in zip(trace.times.tolist(), trace.values.tolist()):
            sm.push(t, row)
            cuts.clear()
            spans.clear()
            if sm.poll() is not None:
                emits += 1
            if emits > 1 and spans and all(spans):
                steady_polls += 1
                assert cuts == []
        assert steady_polls > 100
        sm.finish()
        sm.poll()
        assert sm.resolved_signal() == monitor(trace, parse(text)).signal
