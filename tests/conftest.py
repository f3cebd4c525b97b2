"""Shared helpers: random signal/kernel/formula generators and slow oracles.

The oracles here are deliberately independent of the library's closed forms:
quadrature for kernel masses, dense Riemann sums for convolution values,
interval geometry for the windowed always/sometime operators, and value
enumeration for robustness.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from sclmon import (
    BooleanSignal,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    HorizonError,
    PiecewiseConstantSignal,
)


def random_boolean_signal(rng: np.random.Generator, start: float, end: float,
                          max_intervals: int = 8,
                          min_feature: float = 0.0) -> BooleanSignal:
    """Random disjoint true-intervals; ``min_feature`` spaces the edges apart."""
    n = int(rng.integers(0, max_intervals + 1))
    if n == 0:
        return BooleanSignal.never(start, end)
    cuts = np.sort(rng.uniform(start, end, 2 * n))
    if min_feature > 0.0:
        keep = [cuts[0]]
        for c in cuts[1:]:
            if c - keep[-1] >= min_feature:
                keep.append(c)
        if len(keep) % 2 == 1:
            keep.pop()
        cuts = np.array(keep)
    pairs = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(len(cuts) // 2)]
    return BooleanSignal.from_intervals(start, end, pairs)


def random_kernel(rng: np.random.Generator, lower: float, upper: float):
    shape = rng.choice(["flat", "exp", "gauss"])
    if shape == "flat":
        return FlatKernel(lower, upper)
    if shape == "exp":
        rate = float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
        return ExponentialKernel(rate, lower, upper)
    width = upper - lower
    center = float(rng.uniform(lower - 0.3 * width, upper + 0.3 * width))
    spread = float(rng.uniform(0.15 * width, 1.5 * width))
    return GaussianKernel(center, spread, lower, upper)


def random_trace(rng: np.random.Generator, duration: float, n_samples: int,
                 lo: float = -2.0, hi: float = 2.0,
                 variable: str = "v") -> PiecewiseConstantSignal:
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, duration, n_samples - 1))])
    times = np.unique(times)
    values = rng.uniform(lo, hi, (len(times), 1))
    return PiecewiseConstantSignal((variable,), times, values, duration)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def kernel_density_unnormalized(kernel, x: float) -> float:
    """The raw shape, written out directly (no reuse of library formulas)."""
    if isinstance(kernel, FlatKernel):
        return 1.0
    if isinstance(kernel, ExponentialKernel):
        return math.exp(kernel.rate * (x - kernel.lower))
    if isinstance(kernel, GaussianKernel):
        return math.exp(-(((x - kernel.center) / kernel.spread) ** 2))
    raise TypeError(kernel)


def kernel_mass_quadrature(kernel, a: float, b: float, tol: float = 1e-10) -> float:
    """Window mass of [a, b] by adaptive quadrature of the raw shape."""
    total, _ = quad(lambda x: kernel_density_unnormalized(kernel, x),
                    kernel.lower, kernel.upper, epsabs=tol, limit=400)
    part, _ = quad(lambda x: kernel_density_unnormalized(kernel, x), a, b,
                   epsabs=tol, limit=400)
    return part / total


def weighted_integral_many(kernel, sig: BooleanSignal, ts: np.ndarray) -> np.ndarray:
    """Kernel-weighted true time of ``sig`` in the window anchored at each of ``ts``.

    One broadcast ``mass_clipped`` over intervals x anchors, summed in
    numpy's own order, so it checks the monitor's blocked, time-ordered
    window integrals against an independent sum at every sample.
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) == 0:
        return np.zeros(0)
    eps = 1e-9 * max(1.0, abs(sig.start), abs(sig.end))
    if ts.min() + kernel.lower < sig.start - eps or ts.max() + kernel.upper > sig.end + eps:
        raise HorizonError(
            "some window reaches outside the signal domain "
            f"[{sig.start}, {sig.end}]"
        )
    if not sig.intervals:
        return np.zeros(len(ts))
    a = np.clip(sig.starts[:, None] - ts[None, :], kernel.lower, kernel.upper)
    b = np.clip(sig.ends[:, None] - ts[None, :], kernel.lower, kernel.upper)
    masses = np.asarray(kernel.mass_clipped(a, b))
    # drop interval rows that never intersect any window: keeps the sums
    # bit-stable when a longer trace appends out-of-reach intervals
    masses = masses[masses.any(axis=1)]
    return masses.sum(axis=0) if len(masses) else np.zeros(len(ts))


def conv_value_riemann(kernel, sig: BooleanSignal, t: float, n: int = 200_001) -> float:
    """Convolution value by midpoint Riemann sum over the window."""
    xs = np.linspace(kernel.lower, kernel.upper, n)
    mids = 0.5 * (xs[:-1] + xs[1:])
    dens = np.array([kernel_density_unnormalized(kernel, x) for x in mids])
    dens = dens / (np.sum(dens) * (xs[1] - xs[0]))
    truth = sig.values_at(mids + t)
    return float(np.sum(dens[truth]) * (xs[1] - xs[0]))


def erode(sig: BooleanSignal, lower: float, upper: float) -> BooleanSignal:
    """Times whose whole anchored window sits inside the true set."""
    t0, t_end = sig.start, sig.end - upper
    out = [(s - lower, e - upper) for s, e in sig.intervals]
    return BooleanSignal.from_intervals(t0, max(t_end, t0), out)


def dilate(sig: BooleanSignal, lower: float, upper: float) -> BooleanSignal:
    """Times whose anchored window meets the true set."""
    t0, t_end = sig.start, sig.end - upper
    out = [(s - upper, e - lower) for s, e in sig.intervals]
    return BooleanSignal.from_intervals(t0, max(t_end, t0), out)


def rho_conv_enumeration(kernel, threshold: float, seg_bounds: np.ndarray,
                         seg_values: np.ndarray, t: float) -> float:
    """Robustness of a windowed coverage check by enumerating candidate levels.

    ``seg_bounds``/``seg_values`` describe the inner robustness as a step
    function.  Coverage of each candidate level is measured with a dense
    midpoint sum, so this shares nothing with the library's quantile search.
    """
    lo, hi = t + kernel.lower, t + kernel.upper
    xs = np.linspace(lo, hi, 160_001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    dens = np.array([kernel_density_unnormalized(kernel, x - t) for x in mids])
    weights = dens / np.sum(dens)
    idx = np.searchsorted(seg_bounds, mids, side="right") - 1
    vals = seg_values[np.clip(idx, 0, len(seg_values) - 1)]

    finite = np.unique(vals[np.isfinite(vals)])
    candidates = sorted(finite, reverse=True)

    def coverage(r: float) -> float:
        return float(np.sum(weights[vals > r]))

    if candidates and coverage(candidates[0] + 1.0) >= threshold:
        return math.inf
    if not candidates:
        top = coverage(0.0)
        return math.inf if top >= threshold else -math.inf
    for level in candidates:
        # just below `level` the indicator includes every segment >= level
        if coverage(level - 1e-9) >= threshold:
            return float(level)
    return -math.inf
