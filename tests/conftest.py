"""Shared helpers: random signal/kernel/formula generators and slow oracles.

The oracles here are deliberately independent of the library's closed forms:
quadrature for kernel masses, dense Riemann sums for convolution values, a
grid oracle with window integrals of its own for the Boolean verdict,
interval geometry for the windowed always/sometime operators, and value
enumeration for robustness.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, erfc

from sclmon import (
    And,
    Atom,
    BooleanSignal,
    Const,
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
    boolean_and,
    boolean_not,
    boolean_or,
    eval_atom,
    restrict_domain,
)
from sclmon.robustness import _breaks, _rho_at

# Property tests draw the same examples on every run, so a commit passes or
# fails the suite the same way each time; per-test settings keep their counts.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


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


def signal_bits(sig: BooleanSignal) -> tuple[bytes, ...]:
    """A signal's domain and bounds as exact float64 bytes, sign bits included."""
    return tuple(np.asarray(x, dtype=float).tobytes()
                 for x in ([sig.start, sig.end], sig.starts, sig.ends))


@st.composite
def plateau_traces(draw, negative_zero: bool = False):
    """A one-variable trace ``v`` on a quarter-hour grid whose samples sit at
    0 or one above or below it, and a span start ``lo`` drawn
    from the grid, the trace's sample times and the duration.  A trace of one
    sample may have duration 0.  With ``negative_zero`` the first time may
    be given as -0.0, which the trace stores as 0.0."""
    times = np.cumsum([0] + draw(st.lists(st.integers(1, 3), max_size=6))) * 0.25
    if negative_zero and draw(st.booleans()):
        times[0] = -0.0
    values = [draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in times]
    duration = float(times[-1]) + draw(st.integers(0, 3)) * 0.25
    trace = PiecewiseConstantSignal(("v",), times, np.array(values).reshape(-1, 1), duration)
    grid = draw(st.integers(0, int(duration / 0.25))) * 0.25
    lo = draw(st.sampled_from([grid, duration] + trace.times.tolist()))
    return trace, lo


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

    One broadcast ``masses`` call over an (intervals, anchors, 2) array of
    start-end pairs, summed in numpy's own order, so it checks the monitor's
    blocked, time-ordered window integrals against an independent sum at
    every sample.
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
    masses = np.asarray(kernel.masses(np.stack((a, b), axis=-1))[..., 0])
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


def cumulative_weight(kernel):
    """``x -> `` the kernel's weight of ``[lower, x]`` for window offsets x in
    ``[lower, upper]``, exactly 0 at ``lower`` and 1 at ``upper``.

    It is the raw shape's antiderivative, normalised: a clipped length for
    flat windows, ``expm1`` for exp windows and ``erf`` for Gaussian ones,
    with ``erfc`` of the far side when the bump's centre lies outside the
    window, so a window in the bump's tail keeps its relative accuracy.
    """
    lo, hi = kernel.lower, kernel.upper
    if isinstance(kernel, FlatKernel):
        def raw(x):
            return x - lo
    elif isinstance(kernel, ExponentialKernel):
        def raw(x):
            return np.expm1(kernel.rate * (x - lo))
    elif isinstance(kernel, GaussianKernel):
        c, s = kernel.center, kernel.spread
        if lo >= c:
            def raw(x):
                return -erfc((x - c) / s)
        elif hi <= c:
            def raw(x):
                return erfc((c - x) / s)
        else:
            def raw(x):
                return erf((x - c) / s)
    else:
        raise TypeError(kernel)
    zero = raw(lo)
    total = raw(hi) - zero
    return lambda x: (raw(x) - zero) / total


def window_integrals(kernel, sig: BooleanSignal, ts) -> np.ndarray:
    """H at each anchor of ``ts``: for each true interval, the difference of
    :func:`cumulative_weight` at its clipped ends, summed in time order.

    It shares no window integral, snap or mass with the library.  As in the
    library, an interval reaching the signal's end reaches every window's
    end, also that of a last window which rounding put past it.
    """
    ts = np.asarray(ts, dtype=float)
    weight = cumulative_weight(kernel)
    lo, hi = kernel.lower, kernel.upper
    starts, ends = sig.starts, sig.ends
    if len(ends) and ends[-1] == sig.end:
        ends = np.concatenate((ends[:-1], [np.inf]))
    h = np.zeros(len(ts))
    if len(ts):
        first = ends.searchsorted(ts.min() + lo, side="left")
        last = starts.searchsorted(ts.max() + hi, side="right")
        for s, e in zip(starts[first:last], ends[first:last]):
            h += weight(np.clip(e - ts, lo, hi)) - weight(np.clip(s - ts, lo, hi))
    return h


class GridVerdict(NamedTuple):
    signal: BooleanSignal
    crossings: tuple[float, ...]


def grid_oracle(kernel, threshold: float, sig: BooleanSignal, grid: float) -> GridVerdict:
    """Brute-force verdict of ``<kernel, threshold>`` over ``sig``.

    H comes from :func:`window_integrals` every ``grid`` from the signal's
    start and at the span's end, which replaces a last grid time within
    1e-12 of it.  The verdict is true where H >= threshold, and each flip is
    linearly interpolated inside its grid cell.  The grid goes in blocks,
    each carrying the last sample of the one before, and only the truth at
    the start and the crossings are kept, so memory does not grow with it.
    """
    t0 = sig.start
    t_end = sig.end - kernel.upper
    assert t_end >= t0 - 1e-12, "signal too short for the window"
    t_end = max(t_end, t0)
    n = int(math.floor((t_end - t0) / grid))
    count = n + 1 if t0 + grid * n >= t_end - 1e-12 * max(1.0, abs(t_end)) else n + 2
    block = 1 << 16
    crossings: list[float] = []
    ts, th = np.empty(0), np.empty(0)
    for b in range(0, count, block):
        new = t0 + grid * np.arange(b, min(b + block, count))
        if b + block >= count:
            new[-1] = t_end
        ts = np.concatenate((ts[-1:], new))
        th = np.concatenate((th[-1:], window_integrals(kernel, sig, new) - threshold))
        truth = th >= 0.0
        i = np.flatnonzero(truth[1:] != truth[:-1])
        a, z = ts[i], ts[i + 1]
        roots = a + (z - a) * (-th[i] / (th[i + 1] - th[i]))
        crossings.extend(np.clip(roots, a, z).tolist())
        if b == 0:
            first = bool(truth[0])
    cuts = [t0, *crossings, t_end][0 if first else 1:]
    pairs = list(zip(cuts[0::2], cuts[1::2]))
    return GridVerdict(BooleanSignal.from_intervals(t0, t_end, pairs), tuple(crossings))


def oracle_monitor(trace: PiecewiseConstantSignal, f) -> BooleanSignal:
    """Truth signal of ``f`` from 0 with every window node by
    :func:`grid_oracle` at a grid of its window width / 2000.

    The dual is the complement of the complemented child at ``1 - p``.
    """
    match f:
        case Const(value):
            full = BooleanSignal.always if value else BooleanSignal.never
            return full(0.0, trace.duration)
        case Atom():
            return eval_atom(trace, f)
        case Not(child):
            return boolean_not(oracle_monitor(trace, child))
        case Or(left, right) | And(left, right) | Implies(left, right):
            a, b = oracle_monitor(trace, left), oracle_monitor(trace, right)
            end = min(a.end, b.end)
            a, b = restrict_domain(a, (0.0, end)), restrict_domain(b, (0.0, end))
            if isinstance(f, And):
                return boolean_and(a, b)
            return boolean_or(boolean_not(a) if isinstance(f, Implies) else a, b)
        case Conv(kernel, p, child):
            return grid_oracle(kernel, p, oracle_monitor(trace, child), kernel.width / 2000).signal
        case ConvDual(kernel, p, child):
            inner = boolean_not(oracle_monitor(trace, child))
            return boolean_not(grid_oracle(kernel, 1.0 - p, inner, kernel.width / 2000).signal)
    raise TypeError(f)


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


def _coverage_supremum(kernel, threshold: float, cuts: np.ndarray,
                       values: np.ndarray, end: float, t: float) -> float:
    """sup { r | kernel-weighted measure of {inner > r} in the window >= threshold }.

    The inner robustness is ``values[k]`` from ``cuts[k]`` up to the next cut,
    the last one up to ``end``; the window at ``t`` starts at or after
    ``cuts[0]`` and is clipped at ``end``.  For r just below a level u the set
    {inner > r} is {inner >= u}, so the supremum is the highest level u, +inf
    included, whose coverage(u) reaches the threshold, else -inf: the levels
    are tried from the top.  A threshold of 0 is always reached.  One of 1 is
    reached when every segment held for a positive time in the window is at
    or above u: a segment from a to b that starts before ``end`` is held when
    ``a - upper < t < b - lower``, the monitor's test for an edge strictly
    inside.  Any other coverage(u) is one masked sum of masses in time order.
    Level 0 is -0.0 when any of the window's zeros is.
    """
    if threshold in (0.0, 1.0):
        ends = np.append(cuts[1:], end)
        held = (cuts - kernel.upper < t) & (t < ends - kernel.lower) & (cuts < end)
        seg_vals = values[held]

        def covers(level: float) -> bool:
            return threshold == 0.0 or bool(np.all(seg_vals >= level))
    else:
        lo, hi = t + kernel.lower, min(t + kernel.upper, end)
        i = int(np.searchsorted(cuts, lo, side="right")) - 1
        j = int(np.searchsorted(cuts, hi, side="left"))
        seg = np.concatenate([[lo], cuts[i + 1:j], [hi]])
        seg_vals = values[i:j] if j > i else values[i:i + 1]
        masses = np.asarray(kernel.masses(np.stack((
            np.clip(seg[:-1] - t, kernel.lower, kernel.upper),
            np.clip(seg[1:] - t, kernel.lower, kernel.upper),
        ), axis=-1))[:, 0], dtype=float)

        def covers(level: float) -> bool:
            return float(np.sum(masses[seg_vals >= level])) >= threshold

    for level in [math.inf, *np.unique(seg_vals[np.isfinite(seg_vals)])[::-1].tolist()]:
        if covers(level):
            signed_zero = level == 0.0 and np.any(np.signbit(seg_vals[seg_vals == 0.0]))
            return -0.0 if signed_zero else level
    return -math.inf


def rho_conv_per_time(trace: PiecewiseConstantSignal, f: Conv, ts: np.ndarray) -> np.ndarray:
    """Robustness of the coverage node ``f`` at each of the ascending times
    ``ts``, one window at a time.

    The child is sampled as the library samples it; each window then gets
    its own mass call and its own time-ordered decision, so this is the
    per-time evaluation that the library's blocked one must equal bit for bit.
    """
    cuts = _breaks(trace, f.child, ts[0] + f.kernel.lower, ts[-1] + f.kernel.upper)
    values = _rho_at(trace, f.child, cuts)
    return np.array([_coverage_supremum(f.kernel, f.threshold, cuts, values,
                                        trace.duration, t) for t in ts])
