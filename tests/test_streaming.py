"""Online monitoring: push/poll resolution and exact offline equivalence."""

import numpy as np
import pytest

from sclmon import (
    MonitorConfig,
    PiecewiseConstantSignal,
    StreamingMonitor,
    TraceError,
    monitor,
    parse,
)


def feed_and_collect(formula, trace, config=None, poll_every=1):
    """Push sample-by-sample, polling as we go; return the assembled signal."""
    sm = StreamingMonitor(formula, trace.variables, config)
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

    def test_unknown_variable_rejected(self):
        from sclmon import SclError
        with pytest.raises(SclError, match="variables"):
            StreamingMonitor(parse("w >= 0"), ("v",))


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
        cfg = MonitorConfig()
        for _ in range(25):
            trace = random_trace(rng, duration=4.0 + rng.uniform(0, 2))
            got = feed_and_collect(f, trace, cfg)
            expected = monitor(trace, f, cfg).signal
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

    def test_poll_cadence_does_not_matter(self):
        rng = np.random.default_rng(103)
        f = parse("<flat[0,1], 0.5> (v >= 0)")
        cfg = MonitorConfig()
        for cadence in (1, 3, 7):
            trace = random_trace(rng, duration=5.0)
            got = feed_and_collect(f, trace, cfg, poll_every=cadence)
            assert got == monitor(trace, f, cfg).signal

    @pytest.mark.parametrize("evaluator", ["efficient", "oracle"])
    def test_every_evaluator_is_prefix_exact(self, evaluator):
        rng = np.random.default_rng(107)
        f = parse("<exp(1.5)[0,1], 0.5> (v >= 0)")
        cfg = MonitorConfig(evaluator=evaluator)
        for _ in range(10):
            trace = random_trace(rng, duration=4.5)
            got = feed_and_collect(f, trace, cfg)
            assert got == monitor(trace, f, cfg).signal

    @pytest.mark.parametrize("text", [
        "G[0,1] (v >= 0.5)",                # full-coverage plateaus (H snaps to 1)
        "<flat[0,2], 0.5> (v >= 0.5)",      # H sits exactly on the threshold
        "<flat[0,2], 0.5>* (v >= 0.5)",     # strict version of the same plateau
    ])
    def test_threshold_plateaus_stay_prefix_exact(self, text):
        # duty-0.5 square wave: every 2-unit window is covered exactly 50%
        f = parse(text)
        cfg = MonitorConfig()
        times = np.arange(0.0, 12.5, 0.5)
        values = np.where((times % 2.0) < 1.0, 1.0, 0.0).reshape(-1, 1)
        trace = PiecewiseConstantSignal(("v",), times, values, 12.0)
        sm = StreamingMonitor(f, ("v",), cfg)
        for t, row in zip(times, values):
            sm.push(float(t), row)
            sm.poll()
        sm.finish(trace.duration)
        sm.poll()
        assert sm.resolved_signal() == monitor(trace, f, cfg).signal

    def test_last_gaussian_substep_is_held_back(self):
        # the false dip near t = 2.77 lies in the stretch [2.04, 3.0]; while
        # that is the last stretch of the known prefix its crossings are held
        # back, and once it is complete both are emitted as offline
        times = np.round(np.arange(0.0, 5.0001, 0.01), 10)
        v = np.where((times >= 3.0) & (times < 3.04), -1.0, 1.0).reshape(-1, 1)
        trace = PiecewiseConstantSignal(("v",), times, v, 5.0)
        f = parse("<gauss(0.25, 0.02)[0,1], 0.5> (v >= 0)")
        cfg = MonitorConfig()
        expected = monitor(trace, f, cfg)
        assert len(expected.crossings) == 2
        assert feed_and_collect(f, trace, cfg) == expected.signal

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
