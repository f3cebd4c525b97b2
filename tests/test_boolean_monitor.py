"""Boolean monitoring: atom evaluation, the two convolution evaluators,
formula recursion, and their cross-equivalences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmon import (
    Atom,
    BooleanSignal,
    Conv,
    ConvDual,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    HorizonError,
    MonitorConfig,
    Not,
    PiecewiseConstantSignal,
    SclError,
    boolean_not,
    eval_atom,
    eval_conv_efficient,
    eval_conv_oracle,
    eventually,
    globally,
    monitor,
    parse,
    restrict_domain,
)
from conftest import (
    conv_value_riemann,
    dilate,
    erode,
    random_boolean_signal,
    random_kernel,
    weighted_integral_many,
)

REF = BooleanSignal.from_intervals(0.0, 1.5, [(0.3, 0.9)])


def intervals_close(a, b, tol):
    assert len(a) == len(b), f"{a} vs {b}"
    for (s1, e1), (s2, e2) in zip(a, b):
        assert abs(s1 - s2) <= tol and abs(e1 - e2) <= tol, f"{a} vs {b}"


class TestEvalAtom:
    def test_threshold_crossings_at_sample_times(self):
        trace = PiecewiseConstantSignal(
            ("G",), np.array([0.0, 10.0, 20.0]),
            np.array([[50.0], [80.0], [60.0]]), 20.0)
        sig = eval_atom(trace, Atom("G", ">=", 70.0))
        assert sig.intervals == ((10.0, 20.0),)

    def test_constant_trace_all_true(self):
        trace = PiecewiseConstantSignal(("G",), np.array([0.0]), np.array([[110.0]]), 30.0)
        assert eval_atom(trace, Atom("G", ">=", 70.0)) == BooleanSignal.always(0.0, 30.0)

    def test_strict_and_nonstrict_are_complementary(self):
        rng = np.random.default_rng(31)
        times = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, 10, 20))]))
        trace = PiecewiseConstantSignal(
            ("G",), times, rng.uniform(0, 140, (len(times), 1)), 10.0)
        ge = eval_atom(trace, Atom("G", ">=", 70.0))
        lt = eval_atom(trace, Atom("G", "<", 70.0))
        assert lt == boolean_not(ge)

    def test_strict_atoms_are_false_on_a_plateau(self):
        held = PiecewiseConstantSignal(("G",), np.array([0.0]), np.array([[70.0]]), 10.0)
        assert not monitor(held, parse("G < 70")).signal.intervals
        assert not monitor(held, parse("G > 70")).signal.intervals
        assert monitor(held, parse("G <= 70")).signal == BooleanSignal.always(0.0, 10.0)
        assert monitor(held, parse("G < 70")).signal == monitor(held, parse("!(G >= 70)")).signal
        # the same convention on a plateau between other levels
        trace = PiecewiseConstantSignal(
            ("G",), np.array([0.0, 2.0, 5.0]), np.array([[80.0], [70.0], [60.0]]), 8.0)
        assert eval_atom(trace, Atom("G", ">", 70.0)).intervals == ((0.0, 2.0),)
        assert eval_atom(trace, Atom("G", "<", 70.0)).intervals == ((5.0, 8.0),)
        assert eval_atom(trace, Atom("G", "<=", 70.0)).intervals == ((2.0, 8.0),)
        for strict, other in (("<", ">="), (">", "<=")):
            assert eval_atom(trace, Atom("G", strict, 70.0)) == boolean_not(
                eval_atom(trace, Atom("G", other, 70.0)))


class TestOracle:
    def test_flat_false_at_zero(self):
        ev = eval_conv_oracle(FlatKernel(0, 0.5), 0.5, REF, 1e-3)
        assert ev.values[0] == pytest.approx(0.4, abs=1e-12)
        assert not ev.verdict.value_at(0.0)

    def test_rising_exponential_true_at_zero(self):
        ev = eval_conv_oracle(ExponentialKernel(3, 0, 0.5), 0.5, REF, 1e-3)
        assert ev.values[0] == pytest.approx(0.5808, abs=1e-4)
        assert ev.verdict.value_at(0.0)

    def test_zero_threshold_always_true(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            b = random_boolean_signal(rng, 0.0, 5.0)
            ev = eval_conv_oracle(FlatKernel(0, 1), 0.0, b, 0.01)
            assert ev.verdict.signal == BooleanSignal.always(0.0, 4.0)

    def test_matches_riemann_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            b = random_boolean_signal(rng, 0.0, 6.0)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.5, 2)))
            t = float(rng.uniform(0, 6 - k.upper))
            ev = eval_conv_oracle(k, 0.5, b, 0.01)
            idx = int(np.argmin(np.abs(ev.times - t)))
            direct = conv_value_riemann(k, b, float(ev.times[idx]))
            assert ev.values[idx] == pytest.approx(direct, abs=5e-5)


class TestEfficient:
    def test_window_inside_true_interval_saturates(self):
        ev = eval_conv_efficient(FlatKernel(0, 0.5), 0.5, REF)
        idx = int(np.argmin(np.abs(ev.times - 0.4)))
        assert ev.times[idx] == pytest.approx(0.4, abs=1e-12)
        assert ev.values[idx] == 1.0

    def test_first_crossing_of_half(self):
        ev = eval_conv_efficient(FlatKernel(0, 0.5), 0.5, REF)
        assert ev.verdict.crossings[0] == pytest.approx(0.05, abs=1e-9)
        intervals_close(ev.verdict.signal.intervals, ((0.05, 0.65),), 1e-9)

    def test_full_coverage_equals_windowed_always(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            b = random_boolean_signal(rng, 0.0, 8.0)
            lo = float(rng.uniform(0, 0.5))
            hi = lo + float(rng.uniform(0.3, 2.0))
            ev = eval_conv_efficient(FlatKernel(lo, hi), 1.0, b)
            expected = erode(b, lo, hi)
            intervals_close(ev.verdict.signal.intervals, expected.intervals, 1e-9)

    def test_h_stays_in_unit_band(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            b = random_boolean_signal(rng, 0.0, 6.0)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.4, 2)))
            ev = eval_conv_efficient(k, float(rng.uniform(0, 1)), b)
            assert ev.values.min() >= -1e-6 and ev.values.max() <= 1 + 1e-6

    def test_verdict_flips_only_at_crossings_or_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            b = random_boolean_signal(rng, 0.0, 6.0)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.4, 2)))
            ev = eval_conv_efficient(k, float(rng.uniform(0.05, 0.95)), b)
            sig = ev.verdict.signal
            marks = set()
            for s, e in sig.intervals:
                marks.add(round(s, 6))
                marks.add(round(e, 6))
            allowed = {round(sig.start, 6), round(sig.end, 6)}
            allowed.update(round(c, 6) for c in ev.verdict.crossings)
            assert marks <= allowed

    def test_plateau_edges_are_crossings(self):
        # H rises to exactly 0.5 at t=0.5, holds on [0.5, 1.25], then falls;
        # on the complement it falls onto the plateau and rises off it
        sig = BooleanSignal.from_intervals(0.0, 3.5, [(1.0, 1.5), (2.0, 2.25)])
        ev = eval_conv_efficient(FlatKernel(0.0, 1.0), 0.5, sig)
        assert ev.verdict.crossings == pytest.approx([0.5, 1.25], abs=1e-9)
        intervals_close(ev.verdict.signal.intervals, ((0.5, 1.25),), 1e-9)
        ev = eval_conv_efficient(FlatKernel(0.0, 1.0), 0.5, boolean_not(sig))
        assert ev.verdict.crossings == pytest.approx([0.5, 1.25], abs=1e-9)
        assert ev.verdict.signal == BooleanSignal.always(0.0, 2.5)

    def test_closed_form_crossings_are_exact(self):
        """Flat and exponential windows (rates of both signs, |rate|*width up
        to 600): every crossing sits on the threshold to 1e-11, and H is
        evaluated once per stretch."""
        rng = np.random.default_rng(71)
        for i in range(150):
            width = float(rng.uniform(0.5, 2.0))
            lo = float(rng.uniform(0.0, 0.3 * width))
            sig = random_boolean_signal(rng, 0.0, lo + width * 3.0,
                                        max_intervals=10, min_feature=width / 100.0)
            if i % 3 == 0:
                k = FlatKernel(lo, lo + width)
            else:
                scale = rng.uniform(550.0, 600.0) if i % 3 == 2 else rng.uniform(0.3, 8.0)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                k = ExponentialKernel(sign * float(scale) / width, lo, lo + width)
            p = float(rng.uniform(0.05, 0.95))
            ev = eval_conv_efficient(k, p, sig)
            for c in ev.verdict.crossings:
                assert abs(weighted_integral_many(k, sig, [c])[0] - p) <= 1e-11, (k, c)
            edges = np.concatenate([sig.starts, sig.ends])
            events = np.unique(np.concatenate([edges - k.lower, edges - k.upper]))
            t_end = sig.end - k.upper
            n_events = int(np.sum((events > sig.start) & (events < t_end)))
            assert len(ev.times) == n_events + 2

    def test_horizon_shortfall_rejected(self):
        with pytest.raises(HorizonError):
            eval_conv_efficient(FlatKernel(0, 2.0), 0.5, REF)

    def test_gaussian_touch_is_the_cell_end_on_the_threshold(self):
        # H is exactly 0 up to t = 2 and from t = 4 on: both touches are
        # cell ends on the threshold, as for the flat window
        sig = BooleanSignal.from_intervals(0, 6, [(3, 4)])
        for k in (FlatKernel(0, 1), GaussianKernel(0.5, 0.3, 0, 1)):
            assert eval_conv_efficient(k, 0.0, sig).verdict.crossings == (2.0, 4.0)

    def test_narrow_gaussian_dip_is_found(self):
        # H has a minimum at t = 2.77, where the bump sits on the gap
        # [3, 3.04]; 1e-9 below the threshold it dips for about 2e-6 in time.
        # The 1e-4 gap near 3.5 moves every event after it.
        sig = BooleanSignal.from_intervals(0, 6, [(0, 3), (3.04, 3.5037), (3.5038, 5)])
        k = GaussianKernel(0.25, 0.02, 0, 1)
        p = float(weighted_integral_many(k, sig, np.array([2.77]))[0]) + 1e-9
        dip = [c for c in eval_conv_efficient(k, p, sig).verdict.crossings
               if abs(c - 2.77) < 0.01]
        assert dip == pytest.approx([2.769999019, 2.770000981], abs=1e-8)
        near = restrict_domain(sig, (2.7699, 3.7701))
        oracle = eval_conv_oracle(k, p, near, 1e-7).verdict.crossings
        assert dip == pytest.approx(list(oracle), abs=2e-7)


class TestOracleEquivalence:
    def test_random_triples(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            width = float(rng.uniform(0.5, 2.0))
            lo = float(rng.uniform(0, 0.3 * width))
            hi = lo + width
            domain_end = hi + float(rng.uniform(0.5, 1.5)) * width
            b = random_boolean_signal(rng, 0.0, domain_end,
                                      max_intervals=10, min_feature=width / 100)
            k = random_kernel(rng, lo, hi)
            p = float(rng.uniform(0.05, 0.95))
            delta = width / 1000.0
            eff = eval_conv_efficient(k, p, b)
            orc = eval_conv_oracle(k, p, b, delta / 2.0)
            h_ref = weighted_integral_many(k, b, eff.times)
            assert np.max(np.abs(eff.values - h_ref)) <= 2e-12
            tol = max(delta, delta / 2.0)
            assert len(eff.verdict.crossings) == len(orc.verdict.crossings)
            for a, c in zip(eff.verdict.crossings, orc.verdict.crossings):
                assert abs(a - c) <= tol
            intervals_close(eff.verdict.signal.intervals,
                            orc.verdict.signal.intervals, tol)


class TestIncremental:
    """H at the sliding evaluator's samples against fresh window integrals."""

    def test_steady_state_all_true(self):
        full = BooleanSignal.always(0.0, 3.0)
        ev = eval_conv_efficient(FlatKernel(0, 1), 0.9, full)
        assert np.allclose(ev.values, 1.0)
        assert ev.verdict.signal == BooleanSignal.always(0.0, 2.0)

    def test_exponential_tracks_oracle(self):
        k = ExponentialKernel(3, 0, 0.5)
        ev = eval_conv_efficient(k, 0.5, REF)
        assert ev.values[0] == pytest.approx(0.5808, abs=1e-4)
        h_ref = weighted_integral_many(k, REF, ev.times)
        assert np.max(np.abs(ev.values - h_ref)) <= 1e-6

    def test_agreement_with_oracle_random(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            width = float(rng.uniform(0.5, 2.0))
            lo = float(rng.uniform(0, 0.3 * width))
            b = random_boolean_signal(rng, 0.0, lo + width * 2.5, max_intervals=8)
            if rng.random() < 0.4:
                k = FlatKernel(lo, lo + width)
            else:
                rate = float(rng.uniform(0.3, 3.5)) * (1 if rng.random() < 0.5 else -1)
                k = ExponentialKernel(rate, lo, lo + width)
            ev = eval_conv_efficient(k, 0.5, b)
            h_ref = weighted_integral_many(k, b, ev.times)
            assert np.max(np.abs(ev.values - h_ref)) <= 1e-6


@st.composite
def prefix_cases(draw, shape):
    """A Boolean signal on [0, 6], a window of ``shape``, a threshold and a
    cut that leaves the prefix ``[0, cut]`` long enough for the window.

    Times and thresholds come from a coarse dyadic grid as often as not, so
    that coverage sits exactly on the threshold on whole plateaus.
    """
    def grid_or_float(lo, hi):
        eighths = st.integers(math.ceil(lo * 8), math.floor(hi * 8))
        return st.one_of(eighths.map(lambda i: i / 8.0), st.floats(lo, hi))

    cuts = sorted(draw(st.lists(grid_or_float(0.0, 6.0), max_size=12)))
    sig = BooleanSignal.from_intervals(0.0, 6.0, zip(cuts[0::2], cuts[1::2]))
    lo = draw(grid_or_float(0.0, 0.5))
    hi = lo + draw(grid_or_float(0.5, 2.0))
    if shape == "flat":
        k = FlatKernel(lo, hi)
    elif shape == "exp":
        k = ExponentialKernel(draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 6.0)),
                              lo, hi)
    else:
        k = GaussianKernel(draw(st.floats(lo, hi)), draw(st.floats(0.1, 1.5)), lo, hi)
    return sig, k, draw(grid_or_float(0.125, 0.875)), draw(grid_or_float(hi, 6.0))


def _shared_h_agrees(part, full, part_sig, k):
    """Every sample that ``part`` shares with ``full`` before ``part``'s last
    stretch, which starts at its last event before its t_end, has the same H."""
    edges = np.concatenate([part_sig.starts, part_sig.ends])
    events = np.concatenate([edges - k.lower, edges - k.upper])
    t0, t_end = part_sig.start, part_sig.end - k.upper
    inner = events[(events > t0 + 1e-15) & (events < t_end - 1e-15)]
    last_start = float(inner.max()) if len(inner) else t0
    shared, i_part, i_full = np.intersect1d(part.times, full.times, return_indices=True)
    before = shared < last_start
    return np.array_equal(part.values[i_part[before]], full.values[i_full[before]])


class TestPrefixStability:
    """H at a sample is a direct window integral, so it does not depend on
    where evaluation began or ended, and a prefix of the signal reproduces
    the full verdict bit for bit up to its ``stable_until``."""

    @pytest.mark.parametrize("shape", ["flat", "exp", "gauss"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prefix_agrees_with_full_run(self, shape, data):
        sig, k, p, cut = data.draw(prefix_cases(shape))
        start = data.draw(st.floats(0.0, cut - k.upper))
        prefix = restrict_domain(sig, (0.0, cut))
        window = restrict_domain(sig, (start, cut))
        full = eval_conv_efficient(k, p, sig)
        part = eval_conv_efficient(k, p, prefix)

        stable = part.verdict.stable_until
        # a one-point domain keeps a point of truth that an interval signal
        # drops, so only a stable span of positive length is compared
        if stable > 0.0:
            assert (restrict_domain(part.verdict.signal, (0.0, stable))
                    == restrict_domain(full.verdict.signal, (0.0, stable)))
        assert _shared_h_agrees(part, full, prefix, k)
        assert _shared_h_agrees(eval_conv_efficient(k, p, window), full, window, k)


class TestGaussianCells:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_h_is_monotone_on_every_cell(self, data):
        """Gaussian stretches are cut where H' vanishes, so fresh window
        integrals inside a cell lie between its end values."""
        sig, k, p, _ = data.draw(prefix_cases("gauss"))
        ev = eval_conv_efficient(k, p, sig)
        t0, t1 = ev.times[:-1, None], ev.times[1:, None]
        inner = weighted_integral_many(k, sig, (t0 + (t1 - t0) * np.arange(1, 8) / 8).ravel())
        inner = inner.reshape(-1, 7)
        h0, h1 = ev.values[:-1, None], ev.values[1:, None]
        assert np.all(inner >= np.minimum(h0, h1) - 2e-12)
        assert np.all(inner <= np.maximum(h0, h1) + 2e-12)


class TestMonitor:
    def test_windowed_always_on_constant_trace(self):
        trace = PiecewiseConstantSignal(("G",), np.array([0.0]), np.array([[110.0]]), 30.0)
        verdict = monitor(trace, parse("G[0,24] (G >= 70)"))
        assert verdict.signal == BooleanSignal.always(0.0, 6.0)

    def test_coverage_plateau_is_satisfied_nonstrictly(self):
        # 3 of every 24 units above the level => coverage exactly 0.125
        from sclmon import generate_step_train
        trace = generate_step_train(period=24.0, duty=0.125, duration=48.0,
                                    low=100.0, high=200.0, variable="G")
        verdict = monitor(trace, parse("<flat[0,24], 0.125> (G >= 180)"))
        assert verdict.signal == BooleanSignal.always(0.0, 24.0)
        strict = monitor(trace, parse("<flat[0,24], 0.125>* (G >= 180)"))
        assert not strict.signal.intervals

    def test_eventually_equals_negated_always(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            trace = _random_trace(rng, duration=6.0)
            a = Atom("v", ">=", 0.0)
            lhs = monitor(trace, eventually(0, 1, a)).signal
            rhs = monitor(trace, Not(globally(0, 1, Not(a)))).signal
            assert lhs == rhs

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            b = random_boolean_signal(rng, 0.0, 6.0)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.4, 2)))
            p1, p2 = np.sort(rng.uniform(0.05, 0.95, 2))
            weak = eval_conv_efficient(k, float(p1), b)
            strong = eval_conv_efficient(k, float(p2), b)
            for s, e in strong.verdict.signal.intervals:
                mid = 0.5 * (s + e)
                assert weak.verdict.signal.value_at(mid)
                # containment up to the crossing tolerance
                assert weak.verdict.signal.value_at(min(max(s + 1e-7, weak.verdict.signal.start), weak.verdict.signal.end))

    def test_dual_is_strict_complement_pointwise(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            trace = _random_trace(rng, duration=5.0)
            k = random_kernel(rng, 0.0, 1.0)
            p = float(rng.uniform(0.1, 0.9))
            a = Atom("v", ">=", 0.0)
            dual = monitor(trace, ConvDual(k, p, a)).signal
            chain = monitor(trace, Not(Conv(k, 1.0 - p, Not(a)))).signal
            assert dual == chain

    def test_complement_identity_of_h(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            b = random_boolean_signal(rng, 0.0, 6.0)
            k = random_kernel(rng, 0.0, 1.0)
            ev = eval_conv_efficient(k, 0.5, b)
            ev_not = eval_conv_efficient(k, 0.5, boolean_not(b))
            h = weighted_integral_many(k, b, ev.times)
            h_not = weighted_integral_many(k, boolean_not(b), ev.times)
            assert np.max(np.abs(ev.values - h)) <= 1e-9
            assert np.max(np.abs(ev.values + ev_not.values - 1.0)) <= 1e-6
            assert np.max(np.abs(h + h_not - 1.0)) <= 1e-6

    def test_flat_dual_zero_equals_dilation(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            b = random_boolean_signal(rng, 0.0, 8.0)
            lo = float(rng.uniform(0, 0.4))
            hi = lo + float(rng.uniform(0.3, 2))
            ev = eval_conv_efficient(FlatKernel(lo, hi), 1.0, boolean_not(b))
            got = boolean_not(ev.verdict.signal)
            expected = dilate(b, lo, hi)
            intervals_close(got.intervals, expected.intervals, 1e-9)

    def test_horizon_shortfall_names_deficit(self):
        trace = PiecewiseConstantSignal(("G",), np.array([0.0]), np.array([[1.0]]), 10.0)
        with pytest.raises(HorizonError, match="exceeds trace duration"):
            monitor(trace, parse("G[0,24] (G >= 0)"))

    def test_verdict_at_exact_horizon_is_point(self):
        trace = PiecewiseConstantSignal(("G",), np.array([0.0]), np.array([[110.0]]), 24.0)
        verdict = monitor(trace, parse("G[0,24] (G >= 70)"))
        assert verdict.domain == (0.0, 0.0)
        assert verdict.satisfied_at_zero

    def test_evaluator_selection(self):
        trace = _random_trace(np.random.default_rng(89), duration=4.0)
        f = parse("<exp(2)[0,1], 0.5> (v >= 0)")
        base = monitor(trace, f, MonitorConfig(evaluator="efficient")).signal
        other = monitor(trace, f, MonitorConfig(evaluator="oracle")).signal
        assert len(other.intervals) == len(base.intervals)
        for (s1, e1), (s2, e2) in zip(other.intervals, base.intervals):
            assert abs(s1 - s2) <= 2e-3 and abs(e1 - e2) <= 2e-3

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(SclError, match="unknown evaluator 'incremental'"):
            MonitorConfig(evaluator="incremental")


def _random_trace(rng, duration):
    times = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, duration, 12))]))
    values = rng.uniform(-1, 1, (len(times), 1))
    return PiecewiseConstantSignal(("v",), times, values, duration)
