"""Quantitative semantics: value checks against enumeration oracles,
soundness and perturbation-stability properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclmon import (
    And,
    Atom,
    Conv,
    ConvDual,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    HorizonError,
    Implies,
    Not,
    Or,
    PiecewiseConstantSignal,
    StreamingMonitor,
    eventually,
    globally,
    horizon,
    monitor,
    parse,
    rho,
    rho_trace,
)
from sclmon import robustness
from conftest import (_coverage_supremum, plateau_traces, random_kernel, random_trace,
                      rho_conv_enumeration, rho_conv_per_time)

TOL = 1e-6


def constant_trace(value, duration, variable="v"):
    return PiecewiseConstantSignal(
        (variable,), np.array([0.0]), np.array([[value]]), duration)


def uniform_times(end, pitch):
    """0, pitch, 2 pitch, ... up to ``end``, and ``end`` itself: the grid a
    coverage node samples on ``[0, end]`` when ``pitch`` is its width / 1000."""
    ts = pitch * np.arange(int(math.floor(end / pitch)) + 1)
    return ts if ts[-1] >= end - 1e-12 else np.append(ts, end)


class TestRhoValues:
    def test_constant_trace_distance_to_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = float(rng.uniform(-3, 3))
            p = float(rng.uniform(0.05, 1.0))
            k = random_kernel(rng, 0.0, float(rng.uniform(0.5, 2)))
            trace = constant_trace(c, k.upper + 1.0)
            f = Conv(k, p, Atom("v", ">=", 0.0))
            assert rho(trace, f, 0.0) == pytest.approx(c, abs=TOL)

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            trace = random_trace(rng, 4.0, 10)
            f = Conv(FlatKernel(0, 1), 0.4, Atom("v", ">", 0.0))
            assert rho(trace, Not(f), 0.0) == pytest.approx(-rho(trace, f, 0.0), abs=1e-12)

    def test_two_level_trace_supremum(self):
        # two-level inner robustness: coverage drops 1.0 -> 0.3 at level 0.2
        # and 0.3 -> 0 at level 1.0, so the 0.3 threshold holds up to 1.0
        trace = PiecewiseConstantSignal(
            ("v",), np.array([0.0, 0.9]), np.array([[1.0], [0.2]]), 3.0)
        f = Conv(FlatKernel(0.0, 3.0), 0.3, Atom("v", ">", 0.0))
        assert rho(trace, f, 0.0) == pytest.approx(1.0, abs=TOL)

    def test_atoms_and_connectives(self):
        trace = PiecewiseConstantSignal(
            ("v", "w"), np.array([0.0]), np.array([[3.0, -1.0]]), 1.0)
        assert rho(trace, Atom("v", ">=", 1.0), 0.0) == 2.0
        assert rho(trace, Atom("v", "<=", 1.0), 0.0) == -2.0
        assert rho(trace, Or(Atom("v", ">=", 1.0), Atom("w", ">=", 0.0)), 0.0) == 2.0
        assert rho(trace, parse("true"), 0.0) == math.inf
        assert rho(trace, parse("false"), 0.0) == -math.inf

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            trace = random_trace(rng, 5.0, 8)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.5, 3)))
            p = float(rng.uniform(0.05, 0.95))
            f = Conv(k, p, Atom("v", ">", 0.0))
            t = float(rng.uniform(0, 5.0 - k.upper))
            got = rho(trace, f, t)
            bounds = np.append(trace.times, trace.duration)
            expected = rho_conv_enumeration(k, p, bounds, trace.values[:, 0], t)
            assert got == expected

    def test_dual_equals_complement_chain(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            trace = random_trace(rng, 4.0, 10)
            k = random_kernel(rng, 0.0, 1.0)
            p = float(rng.uniform(0.1, 0.9))
            a = Atom("v", ">", 0.0)
            lhs = rho_trace(trace, ConvDual(k, p, a))
            rhs = rho_trace(trace, Not(Conv(k, 1.0 - p, Not(a))))
            assert lhs.times.tobytes() == rhs.times.tobytes()
            assert lhs.values.tobytes() == rhs.values.tobytes()

    def test_windowed_always_is_infimum(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            trace = random_trace(rng, 4.0, 12)
            lo, hi = 0.0, float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(0, 4.0 - hi))
            f = globally(lo, hi, Atom("v", ">", 0.0))
            got = rho(trace, f, t)
            # direct min-over-window of the signed distance
            bounds = np.append(trace.times, trace.duration)
            xs = np.linspace(t + lo, t + hi, 4001)
            idx = np.clip(np.searchsorted(bounds, xs, side="right") - 1, 0,
                          len(trace.values) - 1)
            expected = float(np.min(trace.values[idx, 0]))
            assert got == pytest.approx(expected, abs=max(TOL, 1e-3))

    def test_windowed_sometime_is_supremum(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            trace = random_trace(rng, 4.0, 12)
            hi = float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(0, 4.0 - hi))
            f = eventually(0.0, hi, Atom("v", ">", 0.0))
            bounds = np.append(trace.times, trace.duration)
            xs = np.linspace(t, t + hi, 4001)
            idx = np.clip(np.searchsorted(bounds, xs, side="right") - 1, 0,
                          len(trace.values) - 1)
            expected = float(np.max(trace.values[idx, 0]))
            assert rho(trace, f, t) == pytest.approx(expected, abs=max(TOL, 1e-3))

    def test_outside_horizon_rejected(self):
        trace = constant_trace(1.0, 2.0)
        with pytest.raises(HorizonError):
            rho(trace, globally(0, 1, Atom("v", ">", 0)), 1.5)

    @pytest.mark.parametrize("text", ["<flat[0,1],0.5> (v >= 0)", "v >= 0"])
    def test_nan_time_rejected(self, text):
        with pytest.raises(HorizonError, match="time nan outside evaluable horizon"):
            rho(constant_trace(1.0, 2.0), parse(text), math.nan)

    def test_nested_coverage_robustness(self):
        # windowed-always over a coverage node: rho is the minimum of the
        # inner robustness over the outer window, up to the sampling pitch
        rng = np.random.default_rng(53)
        for _ in range(10):
            trace = random_trace(rng, 4.0, 10)
            inner = Conv(FlatKernel(0.0, 1.0), 0.5, Atom("v", ">", 0.0))
            nested = globally(0.0, 1.0, inner)
            got = rho(trace, nested, 0.0)
            taus = np.arange(0.0, 1.0 + 1e-12, 0.05)
            expected = min(rho(trace, inner, float(tau)) for tau in taus)
            assert got == pytest.approx(expected, abs=5e-2)

    def test_nested_multivariable_implication(self):
        # pump interlock shape: low glucose coverage forces pump-off coverage
        times = np.arange(0.0, 30.5, 0.5)
        g = np.where((times >= 10.0) & (times < 12.0), 60.0, 110.0)
        i = np.where((times >= 10.0) & (times < 12.5), 0.0, 1.5)
        trace = PiecewiseConstantSignal(
            ("G", "I"), times, np.column_stack([g, i]), 30.0)
        f = parse("G[0,20] (<flat[0,1], 0.9> (G <= 70) -> <flat[0,1], 0.9> (I <= 0.2))")
        assert monitor(trace, f).satisfied_at_zero
        r = rho(trace, f, 0.0)
        assert r == pytest.approx(0.2, abs=1e-4)
        # break the interlock: pump restarts while glucose is still low
        i_bad = np.where((times >= 10.0) & (times < 10.8), 0.0, 1.5)
        bad = PiecewiseConstantSignal(
            ("G", "I"), times, np.column_stack([g, i_bad]), 30.0)
        assert not monitor(bad, f).satisfied_at_zero
        assert rho(bad, f, 0.0) < 0

    def test_rho_reads_only_its_horizon(self):
        rng = np.random.default_rng(97)
        trace = random_trace(rng, 6.0, 60)
        nested = [
            parse("G[0.5,1.5] (<flat[0,1], 0.5> (v > 0))"),
            parse("<flat[0.25,1], 0.3> (<exp(2)[0.5,1], 0.6> (v >= 0) | v < -1)"),
            parse("F[0.2,0.8] (<gauss(0.5, 0.3)[0,1], 0.4> (v >= 0) -> G[0.1,0.4] (v <= 1))"),
        ]
        for f in nested:
            for t in (0.3, 1.7, 6.0 - horizon(f)):
                end = t + horizon(f)
                keep = trace.times <= end
                cut = PiecewiseConstantSignal(
                    ("v",), trace.times[keep], trace.values[keep], end)
                assert rho(trace, f, t) == rho(cut, f, t)

        # rho(t) and rho_trace share one recursion: equal on the grid
        single = [
            parse("<flat[0.25,1], 0.4> (v > 0)"),
            parse("<exp(-1.5)[0.5,2], 0.7>* (v >= 0.5)"),
            parse("<flat[0,1], 0.5> (v > 0) | G[0.5,1] (v >= -1)"),
        ]
        for f in single:
            rt = rho_trace(trace, f)
            for i in [*range(0, len(rt.times), 41), len(rt.times) - 1]:
                assert rho(trace, f, float(rt.times[i])) == rt.values[i]


class TestRhoTrace:
    def test_constant_trace_constant_rho(self):
        trace = constant_trace(2.5, 3.0)
        f = Conv(FlatKernel(0, 1), 0.5, Atom("v", ">=", 0.0))
        times = uniform_times(2.0, 0.25)
        assert np.allclose([rho(trace, f, float(t)) for t in times], 2.5, atol=TOL)
        rt = rho_trace(trace, f)
        assert rt.times[0] == 0.0 and rt.times[-1] == pytest.approx(2.0)

    def test_sign_agrees_with_boolean_verdict(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            trace = random_trace(rng, 4.0, 10)
            k = random_kernel(rng, 0.0, 1.0)
            f = Conv(k, float(rng.uniform(0.1, 0.9)), Atom("v", ">", 0.0))
            verdict = monitor(trace, f).signal
            for t in uniform_times(trace.duration - horizon(f), 0.2):
                r = rho(trace, f, float(t))
                if r > TOL:
                    assert verdict.value_at(float(t))
                elif r < -TOL:
                    assert not verdict.value_at(float(t))

    def test_window_free_formula_breaks_at_the_trace_samples(self):
        trace = random_trace(np.random.default_rng(59), 3.0, 12)
        rt = rho_trace(trace, parse("v > 0.5 | v < -0.5"))
        assert np.array_equal(rt.times, np.append(trace.times, trace.duration))
        v = trace.values[:, 0]
        distance = np.maximum(v - 0.5, -0.5 - v)
        assert np.array_equal(rt.values, np.append(distance, distance[-1]))

    def test_nested_formula_is_the_outer_grid(self):
        # rows follow the outer window's grid, 1/1000 of its width, and not
        # the twice finer grid of the inner window
        trace = random_trace(np.random.default_rng(61), 2.5, 12)
        rt = rho_trace(trace, parse("G[0,1] (<flat[0,0.5], 0.5> (v > 0))"))
        assert np.array_equal(rt.times, uniform_times(1.0, 1.0 / 1000))
        assert np.all(np.diff(rt.times) > 0)

    def test_nested_rows_end_at_the_verdict_end(self):
        # the verdict of G[0,u2] (<flat[0,u1]> ...) ends at (D - u1) - u2,
        # which need not be D - (u1 + u2); the last row ends there too
        rng = np.random.default_rng(73)
        for _ in range(10):
            u1, u2 = (round(float(u), 2) for u in rng.uniform(0.2, 1.0, 2))
            duration = round(u1 + u2 + float(rng.uniform(0.02, 0.1)), 2)
            f = parse(f"G[0,{u2}] (<flat[0,{u1}], 0.5> (v > 0))")
            trace = random_trace(rng, duration, 10)
            assert rho_trace(trace, f).times[-1] == monitor(trace, f).signal.end

    def test_single_level_values_are_rho_bit_for_bit(self):
        trace = random_trace(np.random.default_rng(67), 1.5, 10)
        for f in (parse("<flat[0,1], 0.4> (v > 0)"),
                  parse("<gauss(0.5, 0.3)[0,1], 0.6>* (v >= 0)")):
            rt = rho_trace(trace, f)
            assert np.array_equal(rt.times, uniform_times(0.5, 1.0 / 1000))
            for t, r in zip(rt.times, rt.values):
                assert rho(trace, f, float(t)) == r

    @pytest.mark.parametrize("text", [
        "<flat[0,1], 0.5> (v > 0) | <flat[0,0.3], 0.5> (v < -1)",
        "<flat[0,1], 0.5> (v > 0) -> <flat[0,0.3], 0.5> (v < -1)",
    ])
    def test_every_row_of_a_connective_is_rho_bit_for_bit(self, text):
        # the operands' grids, 1/1000 of 1 and of 0.3, do not nest, so most
        # rows fall between the samples of one operand's own grid
        trace = random_trace(np.random.default_rng(97), 1.5, 30)
        f = parse(text)
        rt = rho_trace(trace, f)
        grids = np.union1d(uniform_times(0.5, 1.0 / 1000), uniform_times(0.5, 0.3 / 1000))
        assert np.array_equal(rt.times, grids)
        for t, r in zip(rt.times, rt.values):
            assert rho(trace, f, float(t)) == r

    def test_time_shift_consistency(self):
        rng = np.random.default_rng(31)
        shift = 0.75
        trace = random_trace(rng, 4.0, 10)
        shifted = PiecewiseConstantSignal(
            ("v",),
            np.concatenate([[0.0], trace.times + shift]),
            np.vstack([trace.values[:1], trace.values]),
            trace.duration + shift,
        )
        f = Conv(FlatKernel(0, 1), 0.4, Atom("v", ">", 0.0))
        for t in uniform_times(trace.duration - horizon(f), 0.5):
            r = rho(trace, f, float(t))
            assert rho(shifted, f, float(t) + shift) == pytest.approx(r, abs=2 * TOL)


class TestSoundnessAndCorrectness:
    def _random_formula(self, rng, trace_duration):
        k = random_kernel(rng, 0.0, float(rng.uniform(0.4, min(2.0, trace_duration))))
        p = float(rng.uniform(0.05, 0.95))
        atom = Atom("v", str(rng.choice([">=", "<=", ">", "<"])),
                    float(rng.uniform(-1, 1)))
        f = (Conv if rng.random() < 0.7 else ConvDual)(k, p, atom)
        if rng.random() < 0.3:
            f = Not(f)
        return f

    def test_soundness_on_random_instances(self):
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(250):
            trace = random_trace(rng, 4.0, 10)
            f = self._random_formula(rng, 4.0)
            r = rho(trace, f, 0.0)
            sat = monitor(trace, f).satisfied_at_zero
            if r > TOL:
                assert sat, f"rho={r} but verdict false for {f}"
                checked += 1
            elif r < -TOL:
                assert not sat, f"rho={r} but verdict true for {f}"
                checked += 1
        assert checked > 150

    def test_uniform_shift_below_rho_preserves_verdict(self):
        rng = np.random.default_rng(41)
        for _ in range(120):
            trace = random_trace(rng, 4.0, 10)
            f = self._random_formula(rng, 4.0)
            r = rho(trace, f, 0.0)
            if not math.isfinite(r) or abs(r) < 1e-3:
                continue
            sat = monitor(trace, f).satisfied_at_zero
            amp = abs(r) * float(rng.uniform(0.2, 0.9))
            for sign in (1.0, -1.0):
                shifted = PiecewiseConstantSignal(
                    ("v",), trace.times, trace.values + sign * amp, trace.duration)
                assert monitor(shifted, f).satisfied_at_zero == sat

    def test_adversarial_shift_beyond_rho_flips_threshold_formulas(self):
        rng = np.random.default_rng(43)
        flipped = 0
        for _ in range(60):
            trace = random_trace(rng, 4.0, 10)
            f = self._random_formula(rng, 4.0)
            r = rho(trace, f, 0.0)
            if not math.isfinite(r) or abs(r) < 1e-3:
                continue
            sat = monitor(trace, f).satisfied_at_zero
            amp = abs(r) + max(10 * TOL, 1e-4)
            outcomes = []
            for sign in (1.0, -1.0):
                shifted = PiecewiseConstantSignal(
                    ("v",), trace.times, trace.values + sign * amp, trace.duration)
                outcomes.append(monitor(shifted, f).satisfied_at_zero)
            assert any(o != sat for o in outcomes), \
                f"no flip at amplitude {amp} beyond rho {r} for {f}"
            flipped += 1
        assert flipped > 30

    def test_rho_is_an_inner_segment_value(self):
        # the supremum is a weighted quantile: exactly one of the window's
        # inner robustness values, never a point between two of them
        rng = np.random.default_rng(47)
        for threshold in (0.1, 0.5, 0.9):
            trace = random_trace(rng, 6.0, 40)
            f = Conv(FlatKernel(0, 2), threshold, Atom("v", ">", 0.25))
            value = rho(trace, f, 0.0)
            in_window = trace.values[trace.times < 2.0, 0] - 0.25
            assert value in in_window.tolist()


@st.composite
def unnested_formulas(draw):
    """A formula with no coverage node under another: Boolean combinations
    of atoms and of coverage nodes over window-free children."""
    def atom():
        return Atom("v", draw(st.sampled_from([">=", "<=", ">", "<"])),
                    draw(st.floats(-1.5, 1.5)))

    def window_free(depth):
        if depth == 0 or draw(st.booleans()):
            return atom()
        op = draw(st.sampled_from([Not, Or, And, Implies]))
        if op is Not:
            return Not(window_free(depth - 1))
        return op(window_free(depth - 1), window_free(depth - 1))

    def kernel():
        lo = draw(st.floats(0.0, 0.5))
        hi = lo + draw(st.floats(0.2, 1.0))
        shape = draw(st.sampled_from(["flat", "exp", "gauss"]))
        if shape == "flat":
            return FlatKernel(lo, hi)
        if shape == "exp":
            rate = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 4.0))
            return ExponentialKernel(rate, lo, hi)
        return GaussianKernel(draw(st.floats(lo, hi)), draw(st.floats(0.1, 1.5)), lo, hi)

    def leaf():
        if draw(st.booleans()):
            return window_free(1)
        node = draw(st.sampled_from([Conv, ConvDual]))
        return node(kernel(), draw(st.floats(0.05, 0.95)), window_free(1))

    def top(depth):
        if depth == 0 or draw(st.booleans()):
            return leaf()
        op = draw(st.sampled_from([Not, Or, And, Implies]))
        if op is Not:
            return Not(top(depth - 1))
        return op(top(depth - 1), top(depth - 1))

    return top(2)


class TestSignImpliesVerdict:
    @settings(max_examples=200, deadline=None)
    @given(f=unnested_formulas(), seed=st.integers(0, 2**32 - 1),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=16))
    def test_sign_of_rho_is_the_verdict_away_from_its_edges(self, f, seed, fractions):
        trace = random_trace(np.random.default_rng(seed), 3.0, 12)
        verdict = monitor(trace, f).signal
        edges = np.concatenate([verdict.starts, verdict.ends])
        end = trace.duration - horizon(f)
        for t in (end * x for x in fractions):
            if len(edges) and np.min(np.abs(edges - t)) < 1e-6:
                continue
            r = rho(trace, f, t)
            if r != 0.0:
                assert (r > 0) == verdict.value_at(t), f"rho={r} at t={t} for {f}"


@st.composite
def dipped_traces(draw):
    """A random 3 h trace with one to three dips or spikes, each 1e-15 to
    1e-8 wide, to -3 or 3, beyond every atom threshold drawn here."""
    trace = random_trace(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 3.0, 12)
    times, values = trace.times.tolist(), trace.values[:, 0].tolist()
    for _ in range(draw(st.integers(1, 3))):
        x = 3.0 * draw(st.floats(0.0, 1.0))
        end = x + 10.0 ** draw(st.floats(-15.0, -8.0))
        i = int(np.searchsorted(times, x, side="right")) - 1
        if times[i] < x and end < (times[i + 1] if i + 1 < len(times) else 3.0):
            times[i + 1:i + 1] = [x, end]
            values[i + 1:i + 1] = [draw(st.sampled_from([-3.0, 3.0])), values[i]]
    return PiecewiseConstantSignal(("v",), np.array(times), np.array(values)[:, None], 3.0)


@st.composite
def full_or_empty_formulas(draw):
    """A window at a p of 0 or 1 over an atom: ``G``, ``F``, ``!G``, an
    exponential or Gaussian window at 1, a flat dual at 1 or a flat window at 0."""
    child = Atom("v", draw(st.sampled_from([">=", "<=", ">", "<"])), draw(st.floats(-1.5, 1.5)))
    lo = draw(st.floats(0.0, 0.5))
    hi = lo + draw(st.floats(0.2, 1.0))
    kind = draw(st.sampled_from(["G", "F", "!G", "exp", "gauss", "flat*", "flat0"]))
    if kind == "exp":
        rate = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 4.0))
        return Conv(ExponentialKernel(rate, lo, hi), 1.0, child)
    if kind == "gauss":
        bump = GaussianKernel(draw(st.floats(lo, hi)), draw(st.floats(0.1, 1.5)), lo, hi)
        return Conv(bump, 1.0, child)
    return {"G": globally(lo, hi, child), "F": eventually(lo, hi, child),
            "!G": Not(globally(lo, hi, child)), "flat*": ConvDual(FlatKernel(lo, hi), 1.0, child),
            "flat0": Conv(FlatKernel(lo, hi), 0.0, child)}[kind]


def streamed(f, trace):
    """The stream's resolved signal, pushed and polled sample by sample."""
    sm = StreamingMonitor(f, trace.variables)
    for t, row in zip(trace.times.tolist(), trace.values.tolist()):
        sm.push(t, row)
        sm.poll()
    sm.finish(trace.duration)
    sm.poll()
    return sm.resolved_signal()


class TestFullAndEmptyWindows:
    """At a p of 0 or 1, ρ and the verdict read one predicate: a segment is
    held at t when it starts less than ``upper`` after t and ends more than
    ``lower`` after it, tested in the monitor's event coordinates, so a dip
    however narrow decides both alike."""

    @settings(max_examples=120, deadline=None)
    @given(f=full_or_empty_formulas(), trace=dipped_traces(),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=16))
    def test_sign_of_rho_is_the_verdict(self, f, trace, fractions):
        verdict = monitor(trace, f).signal
        for t in (verdict.end * x for x in fractions):
            r = rho(trace, f, t)
            if r != 0.0:
                assert (r > 0) == verdict.value_at(t), f"rho={r} at t={t} for {f}"

    @pytest.mark.parametrize("width", [5e-10, 1e-10, 5e-12, 1e-13])
    def test_a_narrow_dip_decides_g_and_f(self, width):
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 0.5, 0.5 + width]),
                                        np.array([[1.0], [-1.0], [1.0]]), 3.0)
        g, f = parse("G[0,1] (v > 0)"), parse("F[0,1] (v < 0)")
        assert not monitor(trace, g).value_at(0.0) and rho(trace, g, 0.0) == -1.0
        assert monitor(trace, f).value_at(0.0) and rho(trace, f, 0.0) == 1.0

    @pytest.mark.parametrize("width", [1e-16, 5e-16, 9e-16])
    def test_a_dip_within_an_ulp_of_the_span_start_decides_the_verdict(self, width):
        # the dip leaves the windows an ulp or so after 0, inside the first
        # stretch, which is counted at the span start itself
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, width]),
                                        np.array([[-1.0], [1.0]]), 3.0)
        for text, holds in (("G[0,1] (v > 0)", False), ("<exp(-1)[0,1], 1> (v > 0)", False),
                            ("<gauss(0.5,0.2)[0,1], 1> (v > 0)", False),
                            ("F[0,1] (v < 0)", True)):
            f = parse(text)
            verdict = monitor(trace, f).signal
            r = rho(trace, f, 0.0)
            assert verdict.value_at(0.0) == holds and (r > 0) == holds and r != 0.0, text
            assert streamed(f, trace) == verdict

    def test_a_dip_within_an_ulp_of_the_span_end_decides_the_verdict(self):
        # 3 - 5e-16 rounds to 3 - 4.4e-16; the dip enters the window at the
        # span end 2.0 before 2.0
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 3.0 - 5e-16]),
                                        np.array([[1.0], [-1.0]]), 3.0)
        f = parse("G[0,1] (v > 0)")
        verdict = monitor(trace, f).signal
        assert verdict.end == 2.0 and not verdict.value_at(2.0)
        assert rho(trace, f, 2.0) == -1.0
        assert streamed(f, trace) == verdict

    def test_a_window_end_rounded_onto_a_dip_start_holds_the_dip(self):
        # t + 2 rounds to 8.084, where the dip starts, but 8.084 - 2 < t: the
        # dip enters the windows before t, so the verdict is false at t
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 8.084, 8.1]),
                                        np.array([[1.0], [-1.0], [1.0]]), 10.0)
        f, t = parse("G[0,2] (v > 0)"), 6.0840000000000005
        assert t + 2.0 == 8.084 and 8.084 - 2.0 < t
        assert not monitor(trace, f).value_at(t) and rho(trace, f, t) == -1.0

    def test_no_mass_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a window at a p of 0 or 1 took a mass call")
        for shape in (FlatKernel, ExponentialKernel, GaussianKernel):
            monkeypatch.setattr(shape, "masses", refuse)
        trace = random_trace(np.random.default_rng(73), 3.0, 40)
        for text in ("G[0,1] (v > 0)", "F[0.2,0.7] (v < 0.5)", "<exp(-1)[0,2], 1> (v >= 0)",
                     "<gauss(0.5,0.3)[0,1], 1>* (v <= 1)", "<flat[0,0.4], 0> (v > 1)",
                     "G[0,1] (<flat[0,0.5], 1> (v > -1))"):
            rho_trace(trace, parse(text))
        with pytest.raises(AssertionError, match="mass call"):
            rho_trace(trace, parse("<flat[0,1], 0.5> (v > 0)"))


class TestLastSample:
    """A last sample at a positive duration holds for no time: at the
    duration, ρ and the verdict read the segment that ends there."""

    def test_last_sample_at_the_duration_is_not_read(self):
        trace = PiecewiseConstantSignal(("v",), np.array([0.0, 1.0]),
                                        np.array([[-1.0], [1.0]]), 1.0)
        f = parse("v >= 0")
        assert not monitor(trace, f).value_at(1.0)
        assert rho(trace, f, 1.0) == -1.0
        assert rho_trace(trace, f).values.tolist() == [-1.0, -1.0]
        # a trace of zero duration keeps its one sample
        point = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 0.0)
        assert monitor(point, f).value_at(0.0) and rho(point, f, 0.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(case=plateau_traces(), op=st.sampled_from([">=", ">", "<=", "<"]))
    def test_atom_rho_has_the_verdict_sign_at_every_sample_time(self, case, op):
        trace, _ = case
        f = Atom("v", op, 0.0)
        verdict = monitor(trace, f).signal
        duration = trace.duration
        times = trace.times.tolist()
        for t, after in zip(times + [duration], times[1:] + [duration, duration]):
            if t == duration:
                holds = verdict.value_at(t)
            else:
                # a closed true-interval also holds at its right end, so a
                # sample time reads the verdict on the segment it starts
                holds = verdict.value_at(0.5 * (t + after))
            r = rho(trace, f, t)
            assert holds == (r > 0.0 or (r == 0.0 and op in (">=", "<="))), (t, r, holds)
        assert rho_trace(trace, f).values[-1] == rho(trace, f, duration)


PITCH = 0.05     # sample pitch of the coverage cases' traces


@st.composite
def coverage_cases(draw):
    """A coverage node, a trace of equal samples and ascending times whose
    windows hold more (time, segment) pairs than one block of the library.

    ``p`` = 0.125 comes with a flat window over a whole number of samples,
    a multiple of 8, so the coverage of the top segments often sits exactly
    on the threshold.  The last windows may run past the trace end.
    """
    p = draw(st.sampled_from([0.0, 1e-10, 0.125, 0.7, 1.0 - 1e-10, 1.0]))
    samples = 8 * draw(st.integers(2, 5))          # window width in samples
    width = PITCH * samples
    lower = PITCH * draw(st.integers(0, 4))
    shape = "flat" if p == 0.125 else draw(st.sampled_from(["flat", "exp", "gauss"]))
    if shape == "flat":
        kernel = FlatKernel(lower, lower + width)
    elif shape == "exp":
        kernel = ExponentialKernel(draw(st.sampled_from([-3.0, -0.5, 0.5, 3.0])),
                                   lower, lower + width)
    else:
        kernel = GaussianKernel(lower + width * draw(st.sampled_from([0.0, 0.3, 1.2])),
                                width * draw(st.sampled_from([0.1, 0.5, 2.0])),
                                lower, lower + width)
    child = parse(draw(st.sampled_from([
        "v >= 0", "v >= 0 | true", "v >= 0 | false", "v >= 0 & false",
        "G[0,0.2] (v > 0)", "F[0,0.2] (v > 0)",
    ])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-2.0, 2.0, (120, 1))
    if draw(st.booleans()):
        values = np.round(values * 2.0) / 2.0      # many equal levels
    trace = PiecewiseConstantSignal(("v",), PITCH * np.arange(120), values, 120 * PITCH)
    reach = horizon(child) + lower + (width / 2 if draw(st.booleans()) else width)
    stride = width / 4 if horizon(child) else PITCH / 8
    ts = stride * np.arange(int((trace.duration - reach) / stride) + 1)
    return Conv(kernel, p, child), trace, ts


class TestBlockedCoverage:
    @settings(max_examples=40, deadline=None)
    @given(case=coverage_cases())
    def test_equals_the_per_time_evaluation_bit_for_bit(self, case):
        f, trace, ts = case
        got = robustness._rho_at(trace, f, ts)
        assert got.tobytes() == rho_conv_per_time(trace, f, ts).tobytes()

    @pytest.mark.parametrize("outer", ["flat[0,10]", "exp(-0.3)[0,10]", "gauss(5,3)[0,10]"])
    def test_no_mass_call_exceeds_the_block(self, monkeypatch, outer):
        # each outer window holds 10,001 inner samples, more than one block,
        # so its cut row is split across calls that share their boundary
        # cut, and the 21 windows together about 26 blocks' worth of pairs;
        # the outer threshold lies inside (0, 1), since one of 0 or 1 takes
        # no mass call
        f = parse(f"<{outer}, 0.5> (<flat[0,1], 0.5> (v > 0))")
        shape = type(f.kernel)
        sizes = []
        masses = shape.masses

        def spy(kernel, cuts):
            # segments in the call: cuts per row minus one, times rows
            *rows, n = np.shape(cuts)
            sizes.append(math.prod(rows) * (n - 1))
            return masses(kernel, cuts)

        monkeypatch.setattr(shape, "masses", spy)
        trace = random_trace(np.random.default_rng(71), 11.2, 60)
        ts = rho_trace(trace, f).times
        assert len(ts) == 21 and sum(sizes) > 20 * robustness._BLOCK
        assert max(sizes) <= robustness._BLOCK
        got = robustness._rho_at(trace, f, ts)
        assert got.tobytes() == rho_conv_per_time(trace, f, ts).tobytes()

    def test_a_zero_level_of_both_signs_is_negative(self):
        # -0.0 and +0.0 are one level, and the sort may put either last
        cuts = 0.1 * np.arange(40)
        values = np.tile([0.0, -0.0, 1.0, -1.0, 0.0], 8)
        ts = 0.05 * np.arange(40)
        kernel = FlatKernel(0.0, 1.0)
        got = robustness._coverage_suprema(kernel, 0.5, cuts, values, 4.0, ts)
        want = [_coverage_supremum(kernel, 0.5, cuts, values, 4.0, t) for t in ts]
        assert got.tobytes() == np.array(want).tobytes()
        assert np.all(got == 0.0) and np.all(np.signbit(got))


class TestCloseCalls:
    """Windows whose totals sit on the threshold up to rounding.

    The cuts lie on a 0.05 grid, every fourteenth followed by two more one
    ulp apart, and half the segments are +inf, so the +inf level, the lowest
    and the others come within rounding of p, and the two slivers put up to
    three levels that close at once.
    """

    SLIVERS = np.nextafter(np.round(np.arange(0.5, 4.0, 0.7), 10), np.inf)
    CUTS = np.unique(np.concatenate([np.round(np.arange(0.0, 4.0, 0.05), 10), SLIVERS,
                                     np.nextafter(SLIVERS, np.inf)]))
    TS = np.round(np.arange(0.0, 3.0, 0.1), 10)

    def _check(self, monkeypatch, kernel, cuts=CUTS):
        decided = []
        covers = robustness._covers

        def spy(*args):
            decided.append(args)
            return covers(*args)

        monkeypatch.setattr(robustness, "_covers", spy)
        for seed in (*range(24), 59):        # seed 59 has a top within rounding of p = 0.7
            values = np.random.default_rng(seed).choice(
                [np.inf, -np.inf, 0.5, 1.0, 1.5, 2.0], len(cuts),
                p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
            for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
                got = robustness._coverage_suprema(kernel, p, cuts, values, 4.0, self.TS)
                want = [_coverage_supremum(kernel, p, cuts, values, 4.0, t)
                        for t in self.TS]
                assert got.tobytes() == np.array(want).tobytes()
        return decided

    def test_are_decided_in_time_order(self, monkeypatch):
        assert self._check(monkeypatch, FlatKernel(0.0, 1.0))

    def test_a_negative_mass_is_decided_in_time_order(self, monkeypatch):
        # the erf difference over this one-ulp segment of the window at
        # t = 0 rounds to about -3e-17; the mass is clamped to exactly 0
        kernel = GaussianKernel(0.8331712317715084, 1.0074478304357815, 0.0, 1.0)
        sliver = np.array([0.1842712324618229, 0.18427123246182298])
        assert kernel.masses(sliver)[0] == 0.0
        self._check(monkeypatch, kernel, np.union1d(self.CUTS, sliver))
