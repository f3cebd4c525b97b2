"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Every tolerance is pinned here, not computed.
"""

import math
import statistics
import time

import numpy as np
import pytest

from sclmon import (
    Atom,
    BooleanSignal,
    Conv,
    ConvDual,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    Not,
    PiecewiseConstantSignal,
    StreamingMonitor,
    boolean_not,
    eval_conv_efficient,
    monitor,
    rho,
)
from sclmon.experiments import noise_agreement_experiment
from conftest import (dilate, erode, grid_oracle, random_boolean_signal, random_kernel,
                      random_trace, weighted_integral_many)


def report(name: str, detail: str) -> None:
    print(f"\nPASS {name}: {detail}")


def test_criterion_1_kernel_normalization():
    """200 randomized kernels of all shapes: full-window mass is 1 +- 1e-9."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        lo = float(rng.uniform(-5.0, 5.0))
        k = random_kernel(rng, lo, lo + float(rng.uniform(0.05, 30.0)))
        worst = max(worst, abs(k.mass(k.lower, k.upper) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    report("criterion 1 (kernel normalization)",
           f"max |mass-1| = {worst:.2e} over 200 kernels in {elapsed:.2f}s")


def test_criterion_2_reference_convolution_values():
    """Signal true on [0.3,0.9], window [0,0.5], p=0.5, t=0: closed-form H
    values and the verdict pattern across the three kernels."""
    sig = BooleanSignal.from_intervals(0.0, 1.5, [(0.3, 0.9)])
    flat = FlatKernel(0.0, 0.5)
    rising = ExponentialKernel(3.0, 0.0, 0.5)
    falling = ExponentialKernel(-3.0, 0.0, 0.5)

    h_flat, h_rising, h_falling = (
        float(weighted_integral_many(k, sig, [0.0])[0]) for k in (flat, rising, falling))
    assert h_flat == pytest.approx(0.4000, abs=1e-3)
    assert h_rising == pytest.approx(0.5808, abs=1e-3)
    assert h_falling == pytest.approx(0.2362, abs=1e-3)

    verdicts = {
        "flat": eval_conv_efficient(flat, 0.5, sig).verdict.value_at(0.0),
        "rising": eval_conv_efficient(rising, 0.5, sig).verdict.value_at(0.0),
        "falling": eval_conv_efficient(falling, 0.5, sig).verdict.value_at(0.0),
    }
    assert verdicts == {"flat": False, "rising": True, "falling": False}
    report("criterion 2 (reference values)",
           f"H = {h_flat:.4f}/{h_rising:.4f}/{h_falling:.4f}, "
           f"only the rising exponential accepts at t=0")


def test_criterion_3_oracle_equivalence_1000_triples():
    """1000 random (signal, kernel, threshold) triples, delta = width/1000,
    test-side grid oracle (its own window integrals) at grid delta/2: H
    within 2e-12 of fresh window integrals, crossings within max(delta,
    grid).  Runtime < 2 min."""
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst_h = 0.0
    worst_cross = 0.0
    for _ in range(1000):
        width = float(rng.uniform(0.5, 2.0))
        lo = float(rng.uniform(0.0, 0.3 * width))
        hi = lo + width
        domain_end = hi + float(rng.uniform(0.5, 1.5)) * width
        sig = random_boolean_signal(rng, 0.0, domain_end,
                                    max_intervals=10, min_feature=width / 100.0)
        k = random_kernel(rng, lo, hi)
        p = float(rng.uniform(0.05, 0.95))
        delta = width / 1000.0
        eff = eval_conv_efficient(k, p, sig)
        orc = grid_oracle(k, p, sig, delta / 2.0)
        h_ref = weighted_integral_many(k, sig, eff.times)
        worst_h = max(worst_h, float(np.max(np.abs(eff.values - h_ref))))
        tol = max(delta, delta / 2.0)
        assert len(eff.verdict.crossings) == len(orc.crossings)
        for a, b in zip(eff.verdict.crossings, orc.crossings):
            worst_cross = max(worst_cross, abs(a - b) / tol)
    elapsed = time.perf_counter() - start
    assert worst_h <= 2e-12
    assert worst_cross <= 1.0
    assert elapsed < 120.0
    report("criterion 3 (oracle equivalence)",
           f"worst |H_eff-H_ref| = {worst_h:.2e}, worst crossing "
           f"offset = {worst_cross:.2e} x tol, 1000 triples in {elapsed:.1f}s")


def test_criterion_4_embedding_equivalences():
    """500 random Boolean signals: full-coverage flat operator equals direct
    interval erosion; zero-threshold dual equals direct dilation (<= 1e-9)."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(500):
        sig = random_boolean_signal(rng, 0.0, 8.0)
        lo = float(rng.uniform(0.0, 0.5))
        hi = lo + float(rng.uniform(0.3, 2.0))

        always = eval_conv_efficient(FlatKernel(lo, hi), 1.0, sig).verdict.signal
        expected = erode(sig, lo, hi)
        worst = max(worst, _interval_discrepancy(always, expected))

        inner = eval_conv_efficient(FlatKernel(lo, hi), 1.0, boolean_not(sig))
        sometime = boolean_not(inner.verdict.signal)
        expected = dilate(sig, lo, hi)
        worst = max(worst, _interval_discrepancy(sometime, expected))
    assert worst <= 1e-9
    report("criterion 4 (always/sometime embeddings)",
           f"max endpoint discrepancy = {worst:.2e} over 500 signals")


def _interval_discrepancy(a: BooleanSignal, b: BooleanSignal) -> float:
    assert len(a.intervals) == len(b.intervals), f"{a.intervals} vs {b.intervals}"
    worst = 0.0
    for (s1, e1), (s2, e2) in zip(a.intervals, b.intervals):
        worst = max(worst, abs(s1 - s2), abs(e1 - e2))
    return worst


def test_criterion_5_soundness_and_correctness():
    """1000 instances each: sign of the robustness implies the verdict, and
    uniform perturbations below |rho| - tol never flip the verdict."""
    tol = 1e-6
    rng = np.random.default_rng(1005)

    def sample_instance():
        trace = random_trace(rng, 4.0, 10)
        k = random_kernel(rng, 0.0, float(rng.uniform(0.4, 2.0)))
        p = float(rng.uniform(0.05, 0.95))
        atom = Atom("v", str(rng.choice([">=", "<=", ">", "<"])),
                    float(rng.uniform(-1.0, 1.0)))
        f = (Conv if rng.random() < 0.7 else ConvDual)(k, p, atom)
        if rng.random() < 0.3:
            f = Not(f)
        return trace, f

    sound_checked = 0
    for _ in range(1000):
        trace, f = sample_instance()
        r = rho(trace, f, 0.0)
        sat = monitor(trace, f).satisfied_at_zero
        if r > tol:
            assert sat, f"rho={r} but verdict false"
            sound_checked += 1
        elif r < -tol:
            assert not sat, f"rho={r} but verdict true"
            sound_checked += 1

    stable_checked = 0
    attempts = 0
    while stable_checked < 1000 and attempts < 4000:
        attempts += 1
        trace, f = sample_instance()
        r = rho(trace, f, 0.0)
        if not math.isfinite(r) or abs(r) <= 100 * tol:
            continue
        sat = monitor(trace, f).satisfied_at_zero
        amp = (abs(r) - tol) * float(rng.uniform(0.2, 0.999))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        shifted = PiecewiseConstantSignal(
            ("v",), trace.times, trace.values + sign * amp, trace.duration)
        assert monitor(shifted, f).satisfied_at_zero == sat, \
            f"verdict flipped under amplitude {amp} < rho {r}"
        stable_checked += 1
    assert stable_checked == 1000
    report("criterion 5 (soundness/correctness)",
           f"{sound_checked} decisive sign checks, 1000 stability perturbations, "
           f"zero violations")


def test_criterion_6_event_doubling_cost_within_quadratic_bound():
    """Doubling the events of a dense signal (700 cuts on [0, 6] against
    1400 cuts on [0, 12]) grows the wall time of the sliding evaluator with
    a Gaussian window by at most 4.5x (median of 5 runs)."""
    rng = np.random.default_rng(1006)
    sig = random_boolean_signal(rng, 0.0, 6.0, max_intervals=0)
    cuts = np.sort(rng.uniform(0.0, 6.0, 700))
    sig = BooleanSignal.from_intervals(
        0.0, 6.0, [(cuts[2 * i], cuts[2 * i + 1]) for i in range(350)])
    cuts = np.sort(rng.uniform(0.0, 12.0, 1400))
    double = BooleanSignal.from_intervals(
        0.0, 12.0, [(cuts[2 * i], cuts[2 * i + 1]) for i in range(700)])
    # a Gaussian window has the most work per stretch: H' is split at its
    # zeros there, and about 117 edges sit in every window
    kernel = GaussianKernel(0.5, 0.3, 0.0, 1.0)

    def timed(signal):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            eval_conv_efficient(kernel, 0.5, signal)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    single = timed(sig)
    doubled = timed(double)
    ratio = doubled / single
    assert ratio <= 4.5
    report("criterion 6 (complexity scaling)",
           f"median time {single*1e3:.1f} ms -> {doubled*1e3:.1f} ms, "
           f"ratio {ratio:.2f} <= 4.5")


def test_criterion_7_streaming_equals_offline_exactly():
    """200 random traces fed sample-by-sample: assembled online output is
    exactly the offline verdict."""
    rng = np.random.default_rng(1007)
    formulas = [
        Conv(FlatKernel(0.0, 1.0), 0.4, Atom("v", ">=", 0.0)),
        Conv(ExponentialKernel(2.0, 0.0, 1.2), 0.6, Atom("v", ">=", 0.2)),
        ConvDual(ExponentialKernel(-1.5, 0.1, 1.1), 0.3, Atom("v", "<=", 0.0)),
    ]
    for i in range(200):
        f = formulas[i % len(formulas)]
        trace = random_trace(rng, 3.0 + float(rng.uniform(0.0, 2.0)), 20)
        sm = StreamingMonitor(f, trace.variables)
        for t, row in zip(trace.times, trace.values):
            sm.push(float(t), row)
            sm.poll()
        sm.finish(trace.duration)
        sm.poll()
        assert sm.resolved_signal() == monitor(trace, f).signal
    report("criterion 7 (streaming equivalence)",
           "exact equality on 200 traces fed sample-by-sample")


def test_criterion_8_noise_agreement_ordering():
    """Noisy coverage verdicts agree with the noise-free existential
    reference more often than noisy existential verdicts do (N=500,
    noise std 5)."""
    rep = noise_agreement_experiment(trials=500, seed=1008, noise_std=5.0)
    assert rep.conv_agreement_pct > rep.eventually_agreement_pct
    report("criterion 8 (noise agreement ordering)",
           f"coverage {rep.conv_agreement_pct:.1f}% > existential "
           f"{rep.eventually_agreement_pct:.1f}% over {rep.trials} trials")


def test_criterion_9_incremental_evaluators_match_oracle():
    """For flat and exponential windows, H at every sample of the sliding
    evaluator, a direct window integral per stretch bound, agrees with an
    independent broadcast convolution within 1e-6 pointwise on 300 random
    instances; the rejected threshold-coupled variant is documented in
    test_incremental_updates."""
    rng = np.random.default_rng(1009)
    worst = 0.0
    for i in range(300):
        width = float(rng.uniform(0.5, 2.0))
        lo = float(rng.uniform(0.0, 0.3 * width))
        sig = random_boolean_signal(rng, 0.0, lo + 2.5 * width, max_intervals=8)
        if i % 2 == 0:
            k = FlatKernel(lo, lo + width)
        else:
            rate = float(rng.uniform(0.3, 3.5)) * (1.0 if rng.random() < 0.5 else -1.0)
            k = ExponentialKernel(rate, lo, lo + width)
        ev = eval_conv_efficient(k, float(rng.uniform(0.05, 0.95)), sig)
        ref = weighted_integral_many(k, sig, ev.times)
        worst = max(worst, float(np.max(np.abs(ev.values - ref))))
    assert worst <= 1e-6
    report("criterion 9 (sliding update)",
           f"max pointwise |H - oracle| = {worst:.2e} over 300 instances")
