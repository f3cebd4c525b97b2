"""Boolean monitoring: atom evaluation, the convolution evaluator against the
test-side grid oracle, and the formula recursion."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclmon import (
    Atom,
    BooleanSignal,
    BoundedKernel,
    Conv,
    ConvDual,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    HorizonError,
    Not,
    PiecewiseConstantSignal,
    boolean_not,
    eval_atom,
    eval_conv_efficient,
    eventually,
    globally,
    monitor,
    parse,
    restrict_domain,
)
from sclmon.formula import evaluable_end
from sclmon.monitor import _eval_node
from conftest import (
    conv_value_riemann,
    dilate,
    erode,
    grid_oracle,
    oracle_monitor,
    plateau_traces,
    random_boolean_signal,
    random_kernel,
    signal_bits,
    weighted_integral_many,
    window_integrals,
)

REF = BooleanSignal.from_intervals(0.0, 1.5, [(0.3, 0.9)])
# the module itself: the package's `monitor` names the function
MONITOR = importlib.import_module("sclmon.monitor")


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

    @settings(max_examples=300, deadline=None)
    @given(case=plateau_traces(negative_zero=True))
    def test_complementary_on_threshold_plateaus(self, case):
        # samples sit exactly at the threshold 0, spans start anywhere up
        # to the duration, a one-sample trace may have duration 0, and the
        # first sample time may be -0.0
        trace, lo = case
        for strict, other in (("<", ">="), (">", "<=")):
            got = eval_atom(trace, Atom("v", strict, 0.0), lo)
            assert signal_bits(got) == signal_bits(
                boolean_not(eval_atom(trace, Atom("v", other, 0.0), lo)))

    def test_zero_duration_trace_takes_its_sample(self):
        trace = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 0.0)
        assert eval_atom(trace, Atom("v", ">=", 0.0)).intervals == ((0.0, 0.0),)
        assert eval_atom(trace, Atom("v", "<", 0.0)).intervals == ()
        assert monitor(trace, parse("v >= 0")).satisfied_at_zero


class TestOracle:
    def test_flat_false_at_zero(self):
        k = FlatKernel(0, 0.5)
        assert window_integrals(k, REF, [0.0])[0] == pytest.approx(0.4, abs=1e-12)
        assert not grid_oracle(k, 0.5, REF, 1e-3).signal.value_at(0.0)

    def test_rising_exponential_true_at_zero(self):
        k = ExponentialKernel(3, 0, 0.5)
        assert window_integrals(k, REF, [0.0])[0] == pytest.approx(0.5808, abs=1e-4)
        assert grid_oracle(k, 0.5, REF, 1e-3).signal.value_at(0.0)

    def test_zero_threshold_always_true(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            b = random_boolean_signal(rng, 0.0, 5.0)
            orc = grid_oracle(FlatKernel(0, 1), 0.0, b, 0.01)
            assert orc.signal == BooleanSignal.always(0.0, 4.0)

    def test_matches_riemann_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            b = random_boolean_signal(rng, 0.0, 6.0)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.5, 2)))
            t = float(rng.uniform(0, 6 - k.upper))
            direct = conv_value_riemann(k, b, t)
            assert window_integrals(k, b, [t])[0] == pytest.approx(direct, abs=5e-5)


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
            p = float(rng.uniform(0.05, 0.95))
            ev = eval_conv_efficient(k, p, b)
            # the same window under `!`, monitored over a trace whose atom is b
            edges = np.unique(np.concatenate([[0.0, 6.0], b.starts, b.ends]))
            times, inside = edges[:-1], b.values_at(0.5 * (edges[1:] + edges[:-1]))
            trace = PiecewiseConstantSignal(("v",), times,
                                            np.where(inside, 1.0, -1.0).reshape(-1, 1), 6.0)
            negated = monitor(trace, Not(Conv(k, p, Atom("v", ">=", 0.0))))
            assert negated.signal == boolean_not(ev.verdict.signal)
            assert negated.crossings == ev.verdict.crossings
            for verdict in (ev.verdict, negated):
                sig = verdict.signal
                marks = set()
                for s, e in sig.intervals:
                    marks.add(round(s, 6))
                    marks.add(round(e, 6))
                allowed = {round(sig.start, 6), round(sig.end, 6)}
                allowed.update(round(c, 6) for c in verdict.crossings)
                assert marks <= allowed
        # the promise is a windowed root's: a connective at the root reports
        # no crossings, although its verdict flips
        times = np.arange(0.0, 8.5, 0.5)
        g = np.where((times >= 1.0) & (times < 2.5), 200.0, 100.0)
        i = np.where((times >= 4.5) & (times < 6.0), 3.0, 0.0)
        trace = PiecewiseConstantSignal(("G", "I"), times, np.column_stack([g, i]), 8.0)
        verdict = monitor(trace, parse("<flat[0,1],0.5>(G>=150) | <flat[0,1],0.5>(I>=2)"))
        assert verdict.crossings == ()
        assert len(verdict.signal.starts) == 2

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
        oracle = grid_oracle(k, p, near, 1e-7).crossings
        assert dip == pytest.approx(list(oracle), abs=2e-7)


@st.composite
def conv_cases(draw, shapes=("flat", "exp", "gauss")):
    """A window of one of ``shapes``, a threshold and a Boolean signal whose true
    intervals and gaps may be far narrower than one oracle cell.  Half the
    thresholds sit just off H at an event, where H can have a kink
    extremum, so that a verdict stretch can be narrower than one cell too."""
    width = draw(st.floats(0.5, 2.0))
    lo = draw(st.floats(0.0, 0.3)) * width
    hi = lo + width
    end = hi + draw(st.floats(0.5, 1.5)) * width
    lengths = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 0.5 * width))
    pairs = draw(st.lists(st.tuples(st.floats(0.0, end), lengths), max_size=8))
    sig = BooleanSignal.from_intervals(0.0, end, [(a, a + n) for a, n in pairs])
    shape = draw(st.sampled_from(shapes))
    if shape == "flat":
        kernel = FlatKernel(lo, hi)
    elif shape == "exp":
        kernel = ExponentialKernel(draw(st.sampled_from([-1, 1])) * draw(st.floats(0.3, 4.0)),
                                   lo, hi)
    else:
        kernel = GaussianKernel(draw(st.floats(lo - 0.3 * width, hi + 0.3 * width)),
                                draw(st.floats(0.15, 1.5)) * width, lo, hi)
    p = draw(st.floats(0.05, 0.95))
    edges = np.concatenate((sig.starts, sig.ends)).tolist()
    events = [e - x for e in edges for x in (lo, hi) if 0.0 <= e - x <= end - hi]
    if events and draw(st.booleans()):
        h = float(window_integrals(kernel, sig, [draw(st.sampled_from(events))])[0])
        if 0.01 < h < 0.99:
            p = h + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-9, 1e-5))
    return kernel, p, sig


def _flips(sig: BooleanSignal) -> np.ndarray:
    """The verdict's edges inside its domain: where its truth flips."""
    edges = np.concatenate((sig.starts, sig.ends))
    return np.sort(edges[(edges != sig.start) & (edges != sig.end)])


def _agree(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return len(a) == len(b) and bool(np.all(np.abs(a - b) <= tol))


def _oracle_agrees(kernel, p, sig: BooleanSignal, flips: np.ndarray, grid: float,
                   a: float, b: float) -> bool:
    """Whether the grid oracle finds the evaluator's ``flips`` inside the
    anchors ``(a, b)``, each within one cell.  Where it does not, a feature
    may be narrower than one cell, so the oracle runs again at 1/1000 of the
    grid around every flip either side reports, down to a grid of 1e-9."""
    near = restrict_domain(sig, (a, min(b + kernel.upper, sig.end)))
    orc = _flips(grid_oracle(kernel, p, near, grid).signal)
    mine = flips[(flips > a) & (flips < b)]
    if _agree(mine, orc, grid):
        return True
    if grid < 1e-9:
        return False
    spans: list[list[float]] = []
    for c in np.sort(np.concatenate((mine, orc))).tolist():
        lo, hi = max(c - 2 * grid, a), min(c + 2 * grid, b)
        if spans and lo <= spans[-1][1]:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi])
    return all(_oracle_agrees(kernel, p, sig, flips, grid / 1000, lo, hi) for lo, hi in spans)


class TestOracleEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(case=conv_cases())
    def test_efficient_matches_the_refined_oracle(self, case):
        kernel, p, sig = case
        flips = _flips(eval_conv_efficient(kernel, p, sig).verdict.signal)
        assert _oracle_agrees(kernel, p, sig, flips, kernel.width / 2000,
                              sig.start, sig.end - kernel.upper)

    def test_oracle_shares_no_window_integral_with_the_library(self, monkeypatch):
        # with every library mass and window integral made to raise, the
        # test-side oracle still finds the evaluator's crossings, so the two
        # sides of criterion 3 are independent
        sig = BooleanSignal.from_intervals(0.0, 4.0, [(0.31, 0.93), (1.42, 2.57), (2.71, 3.13)])
        kernels = (FlatKernel(0, 1), ExponentialKernel(-2, 0, 1), GaussianKernel(0.4, 0.3, 0, 1))
        expected = [eval_conv_efficient(k, 0.4, sig).verdict.crossings for k in kernels]
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 0.31, 0.93, 1.42, 2.57, 2.71, 3.13]),
                                        np.array([[-1.0], [1], [-1], [1], [-1], [1], [-1]]), 4.0)
        f = parse("<gauss(0.4, 0.3)[0,1], 0.4> (v >= 0) | !<exp(-2)[0,1], 0.6>* (v < 0)")
        whole = monitor(trace, f).signal

        def broken(*args, **kwargs):
            raise AssertionError("library window integral used")
        for cls in (BoundedKernel, FlatKernel, ExponentialKernel, GaussianKernel):
            monkeypatch.setattr(cls, "masses", broken)
        monkeypatch.setattr(MONITOR, "_grid_integrals", broken)
        with pytest.raises(AssertionError, match="library window integral used"):
            eval_conv_efficient(kernels[0], 0.4, sig)
        for k, eff in zip(kernels, expected):
            grid = k.width / 2000
            orc = grid_oracle(k, 0.4, sig, grid).crossings
            assert len(eff) > 0 and _agree(np.array(eff), np.array(orc), grid), (eff, orc)
        intervals_close(oracle_monitor(trace, f).intervals, whole.intervals, 1.0 / 2000)

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
            orc = grid_oracle(k, p, b, delta / 2.0)
            h_ref = weighted_integral_many(k, b, eff.times)
            assert np.max(np.abs(eff.values - h_ref)) <= 2e-12
            tol = max(delta, delta / 2.0)
            assert len(eff.verdict.crossings) == len(orc.crossings)
            for a, c in zip(eff.verdict.crossings, orc.crossings):
                assert abs(a - c) <= tol
            intervals_close(eff.verdict.signal.intervals, orc.signal.intervals, tol)


def steady_kernel(draw, lower: float, width: float):
    """A flat, exp (either sign of rate) or Gaussian window, the bump
    centred inside or outside it."""
    upper = lower + width
    shape = draw(st.sampled_from(["flat", "exp", "gauss"]))
    if shape == "flat":
        return FlatKernel(lower, upper)
    if shape == "exp":
        return ExponentialKernel(draw(st.sampled_from([-3.0, -0.5, 0.5, 3.0])), lower, upper)
    center = lower + width * draw(st.sampled_from([-0.5, 0.3, 0.8, 1.5]))
    return GaussianKernel(center, 0.3 * width, lower, upper)


def steady_threshold(draw) -> float:
    return draw(st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12]) | st.floats(0.0, 1.0))


def steady_span_end(draw, t0: float, upper: float) -> float:
    """A domain end past one window, exactly one window (a one-point verdict)
    or short of it by less than 1e-12."""
    kind = draw(st.sampled_from(["long", "one", "short"]))
    if kind == "long":
        return t0 + upper + draw(st.floats(0.05, 3.0))
    if kind == "one":
        return t0 + upper
    return t0 + upper - draw(st.floats(1e-14, 9e-13))


@st.composite
def steady_cases(draw):
    """A window, a threshold and a child signal with no truth edge strictly
    inside the windows' reach ``(t0 + lower, t_end + upper)``.

    The child may hold intervals inside ``[t0, t0 + lower]``, the last one
    possibly ending exactly at ``t0 + lower``, an interval from
    ``t0 + lower`` (or from ``t0``) to the end, and one starting exactly at
    ``t_end + upper``.
    """
    lower = draw(st.sampled_from([0.0, 0.25, 0.7]))
    width = draw(st.sampled_from([0.5, 1.0, 2.0]))
    kernel = steady_kernel(draw, lower, width)
    t0 = draw(st.sampled_from([0.0, 0.3, 7.1]))
    end = steady_span_end(draw, t0, kernel.upper)
    t_end = max(end - kernel.upper, t0)
    reach_lo, reach_hi = t0 + lower, t_end + kernel.upper
    pairs = []
    if lower > 0.0:
        cuts = sorted(draw(st.lists(st.floats(t0, reach_lo), max_size=4)))
        if draw(st.booleans()):
            cuts.append(reach_lo)
        pairs += list(zip(cuts[len(cuts) % 2::2], cuts[len(cuts) % 2 + 1::2]))
    cover = draw(st.sampled_from(["none", "from reach", "from start"]))
    if cover != "none":
        pairs.append((reach_lo if cover == "from reach" else t0, end))
    if draw(st.booleans()):
        pairs.append((reach_hi, end))
    return kernel, steady_threshold(draw), BooleanSignal.from_intervals(t0, end, pairs)


def steady_edges(kernel, sig: BooleanSignal, t0: float, t_end: float):
    """The count of child edges passed at ``t0``, or ``None`` when an edge
    is neither passed nor ahead, in event coordinates: edge x is passed
    when ``x - lower <= t0`` and ahead when ``x - upper >= t_end``.  An
    interval reaching the signal's end reaches every window's end, so that
    end is no edge."""
    ends = sig.ends[:-1] if len(sig.ends) and sig.ends[-1] == sig.end else sig.ends
    edges = np.concatenate((sig.starts, ends))
    passed = edges - kernel.lower <= t0
    if not np.all(passed | (edges - kernel.upper >= t_end)):
        return None
    return int(passed.sum())


class TestSteadySpan:
    """A child with no truth edge in the windows' reach: H is exactly 0 or
    1 over one stretch with no crossing, the verdict is the oracle's at p,
    and it is bit for bit what the general path finds.

    The reach is drawn in plain coordinates (``t0 + lower``), the evaluator
    decides in event coordinates (``x - lower <= t0``), and the two can
    differ by a rounding: with ``flat[0.25,0.75]`` over a child true on
    ``[0.5, 0.55]`` from 0.3, ``0.55 - 0.25`` rounds above 0.3, so the edge
    is inside the window at 0.3 for a sub-ulp time.  Such a span is not
    steady; the closed form must decline it, and the general path must
    still agree with the oracle.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=steady_cases())
    @example(case=(FlatKernel(0.25, 0.75), 0.5,
                   BooleanSignal.from_intervals(0.3, 2.05, [(0.5, 0.55)])))
    def test_closed_form_matches_the_oracle(self, case):
        kernel, p, sig = case
        t0, t_end = sig.start, max(sig.end - kernel.upper, sig.start)
        ev = eval_conv_efficient(kernel, p, sig)
        oracle = grid_oracle(kernel, p, sig, kernel.width / 50)
        assert ev.verdict.signal == oracle.signal
        passed = steady_edges(kernel, sig, t0, t_end)
        if passed is None:
            if len(sig.starts) <= 1:
                assert MONITOR._steady(kernel, p, sig, t0, t_end, t0) is None
            return
        # H is 1 after an odd count of passed edges, else 0
        h = passed % 2.0
        assert ev.values.tolist() == [h] * len(ev.values)
        assert ev.verdict.crossings == ()
        assert oracle.crossings == ()
        # with the closed form taken out, the general path finds the same bits
        steady = MONITOR._steady
        MONITOR._steady = lambda *args: None
        try:
            general = eval_conv_efficient(kernel, p, sig)
        finally:
            MONITOR._steady = steady
        assert signal_bits(general.verdict.signal) == signal_bits(ev.verdict.signal)
        assert general.verdict.crossings == ev.verdict.crossings
        assert general.bounds.tolist() == ev.bounds.tolist()
        # it samples H at the bounds, once on a one-point Gaussian span
        assert general.values.tolist() == [h] * len(general.values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_constant_child_through_monitor(self, data):
        draw = data.draw
        width = draw(st.sampled_from([0.5, 1.0, 2.0]))
        kernel = steady_kernel(draw, draw(st.sampled_from([0.0, 0.4])), width)
        p = steady_threshold(draw)
        duration = steady_span_end(draw, 0.0, kernel.upper)
        holds = draw(st.booleans())
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 0.5 * duration]),
                                        np.array([[1.0], [2.0]]), duration)
        child = Atom("v", ">=" if holds else "<", 0.0)
        sig = eval_atom(trace, child)
        t_end = max(duration - kernel.upper, 0.0)
        for dual in (False, True):
            f = (ConvDual if dual else Conv)(kernel, p, child)
            verdict = monitor(trace, f)
            # the dual is the complement of the complemented child at 1 - p
            inner, q = (boolean_not(sig), 1.0 - p) if dual else (sig, p)
            oracle = grid_oracle(kernel, q, inner, kernel.width / 50).signal
            assert verdict.signal == (boolean_not(oracle) if dual else oracle)
            assert verdict.crossings == ()
            assert verdict.domain == (0.0, t_end)


class TestQuietStretches:
    """Where no child edge lies strictly inside the window anchored at a
    sample, H there is exactly 0 or 1, taken from the edges' order, with no
    window integral: all through a quiet stretch, and at any other sample
    whose window edges sit on child edges."""

    def test_quiet_stretches_take_no_window_integral(self, monkeypatch):
        anchors = []
        grid_integrals = MONITOR._grid_integrals

        def spy(kernel, sig, ts, reach):
            anchors.extend(ts.tolist())
            return grid_integrals(kernel, sig, ts, reach)
        monkeypatch.setattr(MONITOR, "_grid_integrals", spy)
        rng = np.random.default_rng(61)
        grid = np.random.default_rng(62)
        cases = []
        for _ in range(60):
            sig = random_boolean_signal(rng, 0.0, float(rng.uniform(3.0, 9.0)), 6)
            lower = float(rng.choice([0.0, 0.25]))
            cases.append((sig, lower, lower + float(rng.uniform(0.2, 1.5)), rng))
        # domain ends, interval bounds and windows on a 1/8 grid, so edges
        # sit on window bounds
        for _ in range(60):
            eighths = int(grid.integers(24, 73))
            cuts = np.unique(grid.integers(0, eighths + 1, 2 * int(grid.integers(1, 7)))) / 8.0
            sig = BooleanSignal.from_intervals(0.0, eighths / 8.0, zip(cuts[0::2], cuts[1::2]))
            lower = float(grid.choice([0.0, 0.25]))
            cases.append((sig, lower, lower + int(grid.integers(2, 13)) / 8.0, grid))
        checked = edge_free = 0
        for sig, lower, upper, draw in cases:
            for kernel in (FlatKernel(lower, upper), ExponentialKernel(2.0, lower, upper),
                           ExponentialKernel(-1.5, lower, upper),
                           GaussianKernel(lower + 0.4 * (upper - lower), 0.3, lower, upper)):
                anchors.clear()
                ev = eval_conv_efficient(kernel, float(draw.uniform(0, 1)), sig)
                # edge x is strictly inside the window anchored at t for
                # x - upper < t < x - lower; an interval reaching the
                # signal's end reaches every window's end, so that end is no edge
                ends = sig.ends[:-1] if len(sig.ends) and sig.ends[-1] == sig.end else sig.ends
                edges = np.concatenate((sig.starts, ends))
                enter, leave = edges - upper, edges - lower
                for a, b in zip(ev.bounds[:-1].tolist(), ev.bounds[1:].tolist()):
                    if np.any((enter < b) & (leave > a)):
                        continue
                    checked += 1
                    assert a not in anchors and b not in anchors
                    at = ev.times.searchsorted([a, b])
                    h = ev.values[at]
                    assert h[0] == h[1] and h[0] in (0.0, 1.0)
                    # the windows lie in a true interval or in a gap
                    assert abs(window_integrals(kernel, sig, [0.5 * (a + b)])[0] - h[0]) < 1e-12
                # so does every sample whose window holds no edge strictly inside
                for t, h in zip(ev.times.tolist(), ev.values.tolist()):
                    if np.any((enter < t) & (t < leave)):
                        continue
                    edge_free += 1
                    assert t not in anchors
                    assert h == np.count_nonzero(leave <= t) % 2.0
                    assert abs(window_integrals(kernel, sig, [t])[0] - h) < 1e-12
        assert checked > 500 and edge_free > 2000


class TestFullAndEmptyWindows:
    """At a p of 0 or 1 the window's edges alone decide H: it is exactly 1
    or 0 at an instant whose window holds no child edge strictly inside,
    and strictly between them anywhere else."""

    def test_no_window_integral_and_no_gaussian_split(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a window at a p of 0 or 1 took a window integral or split")
        monkeypatch.setattr(MONITOR, "_grid_integrals", refuse)
        monkeypatch.setattr(MONITOR, "_gaussian_splits", refuse)
        rng = np.random.default_rng(67)
        busy = 0
        for _ in range(30):
            sig = random_boolean_signal(rng, 0.0, float(rng.uniform(3.0, 9.0)), 6)
            upper = float(rng.uniform(0.2, 1.5))
            for kernel in (FlatKernel(0.0, upper), ExponentialKernel(-1.5, 0.0, upper),
                           GaussianKernel(0.4 * upper, 0.3, 0.0, upper)):
                for p in (0.0, 1.0):
                    ev = eval_conv_efficient(kernel, p, sig)
                    busy += int(np.sum(ev.values == 0.5))
        assert busy > 100
        with pytest.raises(AssertionError, match="window integral"):
            eval_conv_efficient(FlatKernel(0.0, 1.0), 0.5, REF)

    def test_a_window_that_is_full_at_one_instant_touches_g(self):
        # v > 0 exactly on [1, 2]: only the window anchored at 1 is full
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 1.0, 2.0]),
                                        np.array([[-1.0], [1.0], [-1.0]]), 3.0)
        verdict = monitor(trace, parse("G[0,1] (v > 0)"))
        assert verdict.crossings == (1.0,) and verdict.signal.intervals == ()

    def test_a_window_full_at_the_span_start_touches_p_1(self):
        # the child holds on [0, 2], the window [0, 2] is full at 0 only
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 2.0]),
                                        np.array([[1.0], [-1.0]]), 4.0)
        verdict = monitor(trace, parse("<exp(-1)[0,2], 1> (v > 0)"))
        assert verdict.crossings == (0.0,) and verdict.signal.intervals == ()


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
    # the prefix may end on a child edge
    edges = [x for x in cuts if x >= hi]
    cut = draw(st.one_of(grid_or_float(hi, 6.0), *([st.sampled_from(edges)] if edges else [])))
    return sig, k, draw(grid_or_float(0.125, 0.875)), cut


def _shared_h_agrees(part, full, part_sig, k):
    """Every sample that ``part`` shares with ``full`` before ``part``'s last
    stretch, which starts at its last event before its t_end, has the same H."""
    edges = np.concatenate([part_sig.starts, part_sig.ends])
    events = np.concatenate([edges - k.lower, edges - k.upper])
    t0, t_end = part_sig.start, part_sig.end - k.upper
    inner = events[(events > t0) & (events < t_end)]
    last_start = float(inner.max()) if len(inner) else t0
    shared, i_part, i_full = np.intersect1d(part.times, full.times, return_indices=True)
    before = shared < last_start
    return np.array_equal(part.values[i_part[before]], full.values[i_full[before]])


class TestPrefixStability:
    """H at a sample is a direct window integral, so it does not depend on
    where evaluation began or ended, and a prefix of the signal reproduces
    the full verdict and its crossings bit for bit up to its own end, at
    every p."""

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

        end = part.verdict.signal.end
        # a one-point domain keeps a point of truth that an interval signal
        # drops, so only a span of positive length is compared
        if end > 0.0:
            assert (part.verdict.signal
                    == restrict_domain(full.verdict.signal, (0.0, end)))
        assert ([c for c in part.verdict.crossings if c < end]
                == [c for c in full.verdict.crossings if c < end])
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

    @settings(max_examples=100, deadline=None)
    @given(case=conv_cases(shapes=("gauss",)))
    def test_flips_straddle_p_to_the_double(self, case):
        """Gaussian flips straddle p to the double: the evaluator's own H
        meets p at every flip exactly where the verdict holds, and the
        neighbouring double on the false side falls short of p."""
        kernel, p, sig = case
        verdict = eval_conv_efficient(kernel, p, sig).verdict.signal
        for c in _flips(verdict).tolist():
            true = verdict.value_at(c)
            before, after = np.nextafter(c, -np.inf), np.nextafter(c, np.inf)
            other = after if verdict.value_at(before) else before
            # the edges that have entered the windows anchored there
            at = np.array([c, other])
            edges = np.column_stack((sig.starts, sig.ends)).ravel()
            reach = (edges - kernel.upper).searchsorted(at, side="right")
            h = MONITOR._grid_integrals(kernel, sig, at, reach)
            assert (h[0] >= p) == true and (h[1] >= p) != true, (c, h - p)
            assert verdict.value_at(other) != true, c

    def test_a_bracket_narrows_alike_alone_and_in_a_batch(self, monkeypatch):
        """A bracket's probes depend on its own ends only, so it narrows to
        the same root double alone as in a batch; a stream, which meets a
        crossing's bracket in other batches than one offline run does,
        relies on that to equal the offline verdict.  A root the verdict
        wants is the one the bracket narrowed all the way finds."""
        from sclmon import generate_step_train
        narrow = MONITOR._narrow
        calls = []

        def spy(positive_at, lo, hi, lo_positive, after=-np.inf, upto=np.inf):
            after, upto = np.broadcast_to(after, lo.shape), np.broadcast_to(upto, lo.shape)
            roots = narrow(positive_at, lo, hi, lo_positive, after, upto)
            calls.append((positive_at, lo, hi, lo_positive, after, upto, roots))
            return roots

        monkeypatch.setattr(MONITOR, "_narrow", spy)
        trace = generate_step_train(0.35, 0.3, 10.0)
        for text in ("<gauss(0.5,0.3)[0,1], 0.3> (v >= 0.5)",
                     "<gauss(1,0.5)[0,4], 0.3> (v >= 0.5)"):
            monitor(trace, parse(text))
        batches = [call for call in calls if len(call[1]) > 1]
        assert batches
        for positive_at, lo, hi, lo_positive, after, upto, roots in batches:
            for i in range(len(lo)):
                one = slice(i, i + 1)

                def alone(xs, rows, i=i):
                    # positive_at reads its brackets' indices in the batch
                    return positive_at(xs, rows + i)
                root = narrow(alone, lo[one], hi[one], lo_positive[one], after[one], upto[one])
                assert root[0] == roots[i], (lo[i], hi[i], root[0] - roots[i])
                if after[i] <= roots[i] <= upto[i]:
                    assert narrow(alone, lo[one], hi[one], lo_positive[one])[0] == roots[i]


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

    @pytest.mark.parametrize("evaluator", ["efficient", "oracle"])
    def test_last_window_is_not_cut_short_by_rounding(self, evaluator):
        # the last window starts at 10000 - 0.15, and 10000 minus that is
        # 0.1499999999996362: the true interval reaching the trace end still
        # covers all of it
        trace = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 10000.0)
        f = parse("G[0,0.15] (v > 0)")
        signal = monitor(trace, f).signal if evaluator == "efficient" else oracle_monitor(trace, f)
        assert signal == BooleanSignal.always(0.0, 10000.0 - 0.15)

    @pytest.mark.parametrize("text", ["true", "false", "G[0,1] true", "G[0,1] false"])
    def test_constants(self, text):
        trace = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[0.0]]), 3.0)
        verdict = monitor(trace, parse(text))
        full = BooleanSignal.always if text.endswith("true") else BooleanSignal.never
        assert verdict.signal == full(0.0, 2.0 if "G" in text else 3.0)

    def test_evaluator_selection(self):
        trace = _random_trace(np.random.default_rng(89), duration=4.0)
        f = parse("<exp(2)[0,1], 0.5> (v >= 0)")
        base = monitor(trace, f).signal
        other = oracle_monitor(trace, f)
        assert len(other.intervals) == len(base.intervals)
        for (s1, e1), (s2, e2) in zip(other.intervals, base.intervals):
            assert abs(s1 - s2) <= 2e-3 and abs(e1 - e2) <= 2e-3


def _random_trace(rng, duration):
    times = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, duration, 12))]))
    values = rng.uniform(-1, 1, (len(times), 1))
    return PiecewiseConstantSignal(("v",), times, values, duration)


RESTART_FORMULAS = [
    "<flat[0,1], 0.5> (v >= 0)",
    "<exp(1.5)[0,1], 0.4> (v >= 0.5)",
    "<exp(-2)[0.25,1.5], 0.6>* (v <= 0)",
    "<gauss(0.5, 0.3)[0,1], 0.5> (v >= 0)",
    "<gauss(0.25, 0.1)[0.25,1], 0.3>* (v > 0)",
    "G[0,0.5] (<flat[0,1], 0.5> (v > 0))",
    "F[0,0.75] (<exp(-1)[0,0.5], 0.5> (v >= 0) & G[0,0.25] (v > -1))",
    "G[0,1] (v >= -0.5) -> !F[0.25,0.75] (v >= 1)",
    "<flat[0,1], 5e-12> (v >= 0)",    # a small integrated H lies next to p
    "<flat[0,0.5], 0.5> (<exp(1)[0,1], 0.25> (v >= 0))",
]


def coarse_trace(draw) -> PiecewiseConstantSignal:
    """A trace whose times and values sit on coarse grids as often as not."""
    n = draw(st.integers(2, 30))
    steps = draw(st.lists(st.one_of(st.sampled_from([0.125, 0.25, 0.5]),
                                    st.floats(0.01, 0.6)), min_size=n - 1, max_size=n - 1))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    values = draw(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                                     st.floats(-1.5, 1.5)), min_size=n, max_size=n))
    return PiecewiseConstantSignal(("v",), times, np.array(values).reshape(-1, 1),
                                   float(times[-1]) + 0.25)


@st.composite
def restart_cases(draw):
    """A trace whose times and values sit on coarse grids as often as not, a
    formula, the ends of three ever longer prefixes of it, and for each where
    in its verdict's span the next evaluation must start."""
    trace = coarse_trace(draw)
    cuts = sorted(draw(st.lists(st.sampled_from(trace.times.tolist()), min_size=3, max_size=3)))
    where = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                          min_size=3, max_size=3))
    return parse(draw(st.sampled_from(RESTART_FORMULAS))), trace, cuts, where


class TestRestarts:
    """A window node evaluated from a restart point that an evaluation of a
    shorter prefix recorded finds the same stretches, H samples and roots as
    a run from 0: the verdict equals the offline one cut to its span, and so
    do the crossings after its start, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(case=restart_cases())
    def test_restarted_span_equals_offline(self, case):
        f, trace, cuts, where = case
        restarts, lo = {}, 0.0
        for cut, u in zip(cuts, where):
            keep = trace.times <= cut
            prefix = PiecewiseConstantSignal(("v",), trace.times[keep], trace.values[keep], cut)
            try:
                evaluable_end(f, cut)
            except HorizonError:
                continue
            sig, _ = _eval_node(prefix, f, lo, restarts)
            assert sig.start == lo
            lo = max(lo, lo + u * (sig.end - lo))
        try:
            expected = monitor(trace, f)
        except HorizonError:
            return
        sig, crossings = _eval_node(trace, f, lo, restarts)
        assert sig == restrict_domain(expected.signal, (lo, expected.signal.end))
        assert [c for c in crossings if c > lo] == [c for c in expected.crossings if c > lo]

    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.5> (v >= 0)",
        "<exp(1.5)[0,1], 0.4> (v >= 0)",
        "<exp(-2)[0,1], 0.6>* (v >= 0)",
        "<gauss(0.5, 0.3)[0,1], 0.5> (v >= 0)",
        "G[0,1] (v < 0)",
    ])
    def test_restart_inside_a_short_quiet_stretch(self, text):
        # the child flips at 0.5 and at 1.5 + 1e-10, 1e-10 more than the
        # window apart, so no window anchored in (0.5, 0.5 + 1e-10) holds an
        # edge: a quiet stretch much shorter than 1e-9 * (1 + its end)
        gap = 1e-10
        times = np.array([0.0, 0.5, 1.5 + gap, 2.25, 3.0])
        values = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]])
        trace = PiecewiseConstantSignal(("v",), times, values, 4.0)
        f = parse(text)
        restarts = {}
        _eval_node(PiecewiseConstantSignal(("v",), times, values, 3.0), f, 0.0, restarts)
        lo = 0.5 + gap / 2
        sig, crossings = _eval_node(trace, f, lo, restarts)
        assert restarts[()].at == lo
        expected = monitor(trace, f)
        assert sig == restrict_domain(expected.signal, (lo, expected.signal.end))
        assert [c for c in crossings if c > lo] == [c for c in expected.crossings if c > lo]


FINAL_FORMULAS = [
    "G[0,1] (v >= 0)",
    "F[0.25,1] (v > 0.5)",
    "<exp(-2)[0,1], 1> (v > 0)",
    "<gauss(0.5, 0.3)[0,1], 0>* (v <= 0)",
    "G[0,0.5] (F[0.25,1] (v >= 0))",
    "F[0,0.75] (G[0,0.5] (v > -0.5) | <exp(1)[0,0.5], 0> (v >= 1))",
    "G[0,0.5] (<flat[0,1], 0.5> (v > 0))",
    "<flat[0,1], 5e-12> (v >= 0)",
    "<exp(1.5)[0,1], 0.999999999995> (v >= 0)",
    "F[0,0.5] (<gauss(0.25, 0.2)[0,1], 0.999999999999>* (v < 0.5))",
    # 0 < p < 1 on each kernel shape; a flat window's coverage of a child on
    # the traces' 1/8 grid sits on p on whole plateaus
    "<flat[0,1], 0.5> (v >= 0)",
    "<flat[0.25,1.25], 0.375>* (v > 0)",
    "<exp(-2)[0.25,1.25], 0.4> (v > 0)",
    "<exp(1.5)[0,1], 0.6>* (v <= 0.5)",
    "<gauss(0.5, 0.3)[0,1], 0.5> (v >= 0)",
    "<gauss(0.25, 0.1)[0.25,1], 0.3>* (v > 0)",
    # a window at 0 < p < 1 nested under another
    "<flat[0,0.5], 0.5> (<exp(1)[0,1], 0.25> (v >= 0))",
    "<gauss(0.5, 0.2)[0,0.75], 0.4> (<flat[0,0.5], 0.5> (v > 0))",
]


@st.composite
def final_cases(draw):
    """A trace whose times and values sit on coarse grids as often as not, a
    formula and the durations of three prefixes of it, each at a sample,
    where the atom's truth edges lie, or between two."""
    trace = coarse_trace(draw)
    cuts = draw(st.lists(st.one_of(st.sampled_from(trace.times.tolist()),
                                   st.floats(0.0, trace.duration)), min_size=3, max_size=3))
    return draw(st.sampled_from(FINAL_FORMULAS)), trace, cuts


class TestFinalToEnd:
    """A prefix verdict is final up to its own end, at every p: the full
    trace's verdict agrees with it there, crossings included."""

    @settings(max_examples=150, deadline=None)
    @given(case=final_cases())
    def test_prefix_verdict_is_final_to_its_stable_point(self, case):
        text, trace, cuts = case
        f = parse(text)
        try:
            full = monitor(trace, f)
        except HorizonError:
            return
        for cut in cuts:
            try:
                evaluable_end(f, cut)
            except HorizonError:
                continue
            keep = trace.times <= cut
            part = monitor(PiecewiseConstantSignal(("v",), trace.times[keep],
                                                   trace.values[keep], cut), f)
            end = part.signal.end
            # a one-point domain keeps a point of truth that an interval
            # signal drops, so only a span of positive length is compared
            if end > 0.0:
                assert part.signal == restrict_domain(full.signal, (0.0, end))
            assert ([c for c in part.crossings if c < end]
                    == [c for c in full.crossings if c < end])
