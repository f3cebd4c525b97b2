"""Boolean monitoring: truth signals for formulas over piecewise-constant traces.

Two evaluators compute the convolution value H(t) (kernel-weighted coverage
of the child truth signal in the window anchored at t) and threshold it:

* :func:`eval_conv_oracle` -- brute force: H on a uniform grid via window
  integrals, crossings by linear interpolation.  Ground truth for the other.
* :func:`eval_conv_efficient` -- sliding window: the verdict span is split
  into stretches bounded by the events where a window boundary meets a
  true-interval edge, so the edge set inside the window is constant per
  stretch.  There H is linear (flat kernels) or ``C + D*exp(-rate*x)``
  (exponential kernels), so it is sampled at the stretch bounds only, and a
  crossing is solved in closed form.  A Gaussian stretch is also cut where
  H' vanishes (:func:`_gaussian_splits`), so every cell is monotone and a
  crossing is narrowed to 1e-9 in time inside its cell.  No kernel needs
  an integration step.

Both evaluators compute every H sample as a direct window integral, in one
pass over all samples, so H at a time depends only on that time and the
signal, not on where evaluation began.

The dual operator is evaluated structurally as the complement of the
complemented child at threshold ``1 - p``, which realizes its strict
comparison up to sets of measure zero.

Verdicts carry a ``stable_until`` time: extending the trace can never change
the verdict before it.  Only the final stretch (or oracle grid cell)
touches the current trace end, and only threshold-delicate content there
can still move; everything else is reproduced bit-for-bit on any longer
trace.  The streaming facade emits up to this boundary, which makes
online output exactly equal to offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HorizonError, SclError
from .formula import (
    And,
    Atom,
    Const,
    Conv,
    ConvDual,
    Formula,
    Implies,
    Not,
    Or,
    horizon,
)
from .kernels import _ERFC_ZERO, BoundedKernel, FlatKernel, GaussianKernel
from .signals import (
    BooleanSignal,
    PiecewiseConstantSignal,
    boolean_and,
    boolean_not,
    boolean_or,
    restrict_domain,
)

_SNAP = 1e-12          # distance within which H snaps to the exact bounds 0 / 1
_ZERO_BAND = 1e-12     # |H - p| below this counts as sitting exactly on the threshold
_TIME_TOL = 1e-9       # crossing location tolerance
_H_DRIFT = 1e-6        # hard bound on numerical drift of H outside [0, 1]
_CHUNK = 1 << 16       # anchor-interval pairs per broadcast mass call
_PROBES = np.arange(1, 16) / 16.0  # interior points of a root bracket per round
_ORACLE_CELLS = 2000   # oracle grid cells per window width


@dataclass
class MonitorConfig:
    """Knobs for :func:`monitor`: which evaluator computes convolution nodes.

    ``efficient`` (default) is exact per event-aligned stretch for every
    kernel; ``oracle`` samples H on a grid of window width / 2000.
    """

    evaluator: str = "efficient"   # efficient | oracle

    def __post_init__(self) -> None:
        if self.evaluator not in ("efficient", "oracle"):
            raise SclError(f"unknown evaluator {self.evaluator!r}")


@dataclass(frozen=True)
class VerdictSignal:
    """Truth signal of a formula over its evaluable horizon.

    ``crossings`` are the times where the convolution value of the outermost
    windowed operator met its threshold (exact-equality plateau edges
    included); the verdict only flips there or at the domain bounds.
    ``stable_until`` bounds the prefix that cannot change when the trace is
    extended (see module docstring).
    """

    signal: BooleanSignal
    crossings: tuple[float, ...] = ()
    stable_until: float = math.inf

    @property
    def domain(self) -> tuple[float, float]:
        return self.signal.domain

    def value_at(self, t: float) -> bool:
        return self.signal.value_at(t)

    @property
    def satisfied_at_zero(self) -> bool:
        return self.signal.value_at(self.signal.start)


@dataclass(frozen=True)
class ConvEvaluation:
    """A verdict plus the H samples the evaluator actually computed."""

    verdict: VerdictSignal
    times: np.ndarray
    values: np.ndarray


def _thetas(h: np.ndarray, p: float) -> np.ndarray:
    th = h - p
    th[np.abs(th) <= _ZERO_BAND] = 0.0
    return th


def _verdict_span(kernel: BoundedKernel, sig: BooleanSignal) -> tuple[float, float]:
    t0 = sig.start
    t_end = sig.end - kernel.upper
    if t_end < t0 - 1e-12:
        raise HorizonError(
            f"signal domain [{sig.start}, {sig.end}] too short for window "
            f"[{kernel.lower}, {kernel.upper}]: needs {kernel.upper - (sig.end - sig.start):.6g} more"
        )
    return t0, max(t_end, t0)


def _alternating(t0: float, t_end: float, first: bool,
                 flips: np.ndarray | list[float]) -> BooleanSignal:
    """Truth signal over ``[t0, t_end]`` that starts as ``first`` and flips
    at each of the (sorted) ``flips``."""
    cuts = np.concatenate(([t0], flips, [t_end]))[0 if first else 1:]
    n = len(cuts) // 2
    return BooleanSignal.from_intervals(t0, t_end, cuts[:2 * n].reshape(n, 2))


def eval_atom(trace: PiecewiseConstantSignal, atom: Atom) -> BooleanSignal:
    """Truth signal of a threshold comparison over ``[0, duration]``."""
    vals = trace.variable_values(atom.variable)
    compare = {">=": np.greater_equal, ">": np.greater,
               "<=": np.less_equal, "<": np.less}[atom.op]
    bounds = trace.segment_bounds()
    mask = compare(vals, atom.threshold)[:len(bounds) - 1]
    return BooleanSignal.from_intervals(
        0.0, trace.duration, np.column_stack((bounds[:-1][mask], bounds[1:][mask])))


def _grid_integrals(kernel: BoundedKernel, sig: BooleanSignal,
                    ts: np.ndarray) -> np.ndarray:
    """Window integrals of ``sig`` at the anchors ``ts``, snapped to exact
    0 / 1.

    Each value is a plain running sum, in time order, of the masses of the
    intervals in its window's reach.  The anchor-interval pairs go through
    one broadcast mass call per chunk of at most ``_CHUNK`` pairs, so a
    value depends only on its anchor, not on the chunk that took it in, and
    prefixes of a growing trace stay bit-identical.
    """
    starts, ends = sig.starts, sig.ends
    lo, hi = kernel.lower, kernel.upper
    first = np.searchsorted(ends, ts + lo, side="left")
    count = np.maximum(np.searchsorted(starts, ts + hi, side="right") - first, 0)
    done = np.cumsum(count)
    h = np.zeros(len(ts))
    i = 0
    while i < len(ts):
        j = max(i + 1, int(np.searchsorted(done, done[i] - count[i] + _CHUNK, side="right")))
        n = count[i:j]
        pair = np.repeat(np.arange(j - i), n)
        idx = np.arange(int(n.sum())) + np.repeat(first[i:j] - (np.cumsum(n) - n), n)
        at = ts[i:j][pair]
        masses = kernel.mass_clipped(np.clip(starts[idx] - at, lo, hi),
                                     np.clip(ends[idx] - at, lo, hi))
        h[i:j] = np.bincount(pair, masses, minlength=j - i)
        i = j
    h[np.abs(h) <= _SNAP] = 0.0
    h[np.abs(h - 1.0) <= _SNAP] = 1.0
    return h


def eval_conv_oracle(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                     grid: float) -> ConvEvaluation:
    """Brute-force reference: H on a uniform grid, thresholded with linear
    interpolation of the crossing times."""
    if grid <= 0:
        raise SclError("oracle grid must be positive")
    t0, t_end = _verdict_span(kernel, sig)
    n = int(math.floor((t_end - t0) / grid))
    ts = t0 + grid * np.arange(n + 1)
    if ts[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    hs = _grid_integrals(kernel, sig, ts)
    thetas = _thetas(hs, threshold)
    truths = thetas >= 0.0
    crossings: list[float] = []
    for i in np.flatnonzero(truths[1:] != truths[:-1]).tolist():
        th0, th1 = thetas[i], thetas[i + 1]
        if th1 == th0:
            root = float(ts[i + 1])
        else:
            root = float(ts[i] + (ts[i + 1] - ts[i]) * (0.0 - th0) / (th1 - th0))
        crossings.append(min(max(root, float(ts[i])), float(ts[i + 1])))
    signal = _alternating(t0, t_end, bool(truths[0]), crossings)
    # the final grid cell ends at the trace-dependent t_end, so crossings
    # interpolated inside it may move when the trace is extended
    stable = float(ts[-2]) if len(ts) >= 2 else t0
    verdict = VerdictSignal(signal, tuple(crossings), stable)
    return ConvEvaluation(verdict, ts, hs)


def _narrow(positive_at: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray, lo_positive: np.ndarray) -> np.ndarray:
    """Roots of brackets ``[lo, hi]`` that each hold one sign change.

    Each round probes every bracket still wider than 1e-9 at ``_PROBES``
    interior points, in one call of ``positive_at`` on the 2-d array of
    probes, and keeps the piece where the sign first changes.  A bracket's
    probes depend only on its own ends, so its root does not depend on the
    other brackets of the batch.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.flatnonzero(hi - lo > _TIME_TOL)
    while len(live):
        l, h = lo[live], hi[live]
        xs = l[:, None] + (h - l)[:, None] * _PROBES
        changed = positive_at(xs) != lo_positive[live, None]
        j = np.where(changed.any(axis=1), changed.argmax(axis=1), len(_PROBES))
        rows = np.arange(len(live))
        lo[live] = np.where(j > 0, xs[rows, np.maximum(j - 1, 0)], l)
        hi[live] = np.where(j < len(_PROBES), xs[rows, np.minimum(j, len(_PROBES) - 1)], h)
        # a bracket down to the spacing of doubles stops shrinking
        width = hi[live] - lo[live]
        live = live[(width > _TIME_TOL) & (width < h - l)]
    return 0.5 * (lo + hi)


def _stretch_root(kernel: BoundedKernel, span: float, th0: float, th1: float) -> float:
    """Offset of the crossing inside one stretch of a flat or exponential
    window, where H(t + x) is linear or ``C + D*exp(-rate*x)`` in x.

    ``th0`` and ``th1`` are theta at the stretch ends, nonzero and of
    opposite sign.
    """
    if isinstance(kernel, FlatKernel):
        x = span * (-th0 / (th1 - th0))
    elif kernel.rate > 0.0:
        rate = kernel.rate
        x = -math.log1p(-th0 / (th1 - th0) * math.expm1(-rate * span)) / rate
    else:
        # measured from the far end the exponent stays non-positive, so
        # expm1 cannot overflow however long the stretch
        rate = kernel.rate
        x = span - math.log1p(-th1 / (th0 - th1) * math.expm1(rate * span)) / rate
    return min(max(x, 0.0), span)


def _one_signed(u: np.ndarray, sigma: np.ndarray, weight, w_hi, seg) -> np.ndarray:
    """Whether ``f(w) = sum sigma_j exp(weight_j - (u_j - w)^2)`` provably
    keeps one sign on ``[0, w_hi]``, for each run of terms starting at ``seg``.

    It does when its end values share a sign and both exceed
    ``w_hi^2/8 * max|f''|``, the most f can sag below its chord.  Since
    ``|(exp(-d^2))''| <= (4d^2 + 2) exp(-d^2)``, which falls for
    ``d >= 1/sqrt(2)``, each term's bend is bounded at its distance d from
    the interval, taken at least ``1/sqrt(2)``.
    """
    def total(x):
        return np.add.reduceat(x, seg)

    near = np.abs(u - np.clip(u, 0.0, w_hi))
    peak = weight - near * near
    shift = np.repeat(np.maximum.reduceat(peak, seg), np.diff(np.append(seg, len(u))))
    f0 = total(sigma * np.exp(weight - u * u - shift))
    f1 = total(sigma * np.exp(weight - (u - w_hi) ** 2 - shift))
    d = np.maximum(near, math.sqrt(0.5))
    bend = total((4.0 * d * d + 2.0) * np.exp(weight - d * d - shift))
    bend *= np.broadcast_to(w_hi, u.shape)[seg] ** 2 / 8.0
    slack = 1e-12 * total(np.exp(peak - shift))
    return (f0 * f1 > 0.0) & (np.minimum(np.abs(f0), np.abs(f1)) > bend + slack)


def _slope_zeros(u: np.ndarray, sigma: np.ndarray, span: float) -> np.ndarray:
    """Zeros in ``(0, span)`` of ``f(w) = sum sigma_j exp(-(u_j - w)^2)``,
    ``u`` ascending, by Rolle's recursion for exponential sums.

    ``f(w) exp(-w^2)`` is ``sum beta_j exp(2 u_j w)``.  Multiplying by
    ``exp(-2 u_k w)`` and differentiating drops term k, so level k keeps
    the terms from k on, each weighted by ``prod_{i<k} 2 (u_j - u_i)``
    (kept as a log).  Zeros of level k are separated by those of level
    k + 1; the descent stops at the first level that provably keeps one
    sign (the caller found level 0 uncertain), and each level's zeros are
    narrowed between the next one's.
    """
    weights = [np.zeros(len(u))]
    k = 0
    while k < len(u) - 1 and (k == 0 or not _one_signed(u[k:], sigma[k:], weights[k],
                                                          span, [0])[0]):
        weights.append(weights[k][1:] + np.log(2.0 * (u[k + 1:] - u[k])))
        k += 1
    zeros = np.empty(0)
    for k in range(k - 1, -1, -1):
        def positive(w, k=k):
            a = weights[k] - (u[k:] - w[..., None]) ** 2
            return (sigma[k:] * np.exp(a - a.max(axis=-1, keepdims=True))).sum(axis=-1) >= 0.0
        ends = np.concatenate(([0.0], zeros, [span]))
        pos = positive(ends)
        flip = pos[1:] != pos[:-1]
        zeros = _narrow(positive, ends[:-1][flip], ends[1:][flip], pos[:-1][flip])
    return zeros


def _gaussian_splits(kernel: GaussianKernel, sig: BooleanSignal,
                     bounds: np.ndarray) -> np.ndarray:
    """Times inside the stretches between ``bounds`` where H' vanishes.

    In a stretch from a the window's edges are fixed, so H'(t) is
    ``sum +-K(x_j - t)`` over the true-interval edges x_j inside the window
    (+ for starts), up to a positive factor ``sum sigma_j exp(-(u_j - w)^2)``
    with ``w = (t - a)/spread`` and ``u_j = (x_j - a - center)/spread``.
    Edges farther than ``_ERFC_ZERO`` spreads from the bump over the whole
    stretch move no mass a double can hold and are dropped.
    """
    a, b = bounds[:-1], bounds[1:]
    s, c = kernel.spread, kernel.center
    edges = np.column_stack((sig.starts, sig.ends)).ravel()
    sigma = np.tile([1.0, -1.0], len(sig.starts))
    mid = 0.5 * (a + b)
    reach = _ERFC_ZERO * s
    first = np.searchsorted(edges, np.maximum(mid + kernel.lower, a + c - reach), side="right")
    last = np.searchsorted(edges, np.minimum(mid + kernel.upper, b + c + reach), side="left")
    count = last - first
    busy = np.flatnonzero((count > 1) & (b > a))   # one term keeps its sign
    if not len(busy):
        return np.empty(0)
    count = count[busy]
    seg = np.cumsum(count) - count
    owner = np.repeat(busy, count)
    idx = np.arange(int(count.sum())) - np.repeat(seg - first[busy], count)
    u = (edges[idx] - a[owner] - c) / s
    span = (b - a) / s
    sure = _one_signed(u, sigma[idx], 0.0, span[owner], seg)
    splits = [np.empty(0)]
    for i in np.flatnonzero(~sure).tolist():
        j = busy[i]
        part = slice(seg[i], seg[i] + count[i])
        w = _slope_zeros(u[part], sigma[idx[part]], float(span[j]))
        splits.append(np.clip(a[j] + s * w, a[j], b[j]))
    return np.concatenate(splits)


def eval_conv_efficient(kernel: BoundedKernel, threshold: float,
                        sig: BooleanSignal) -> ConvEvaluation:
    """Sliding-window evaluator: event-aligned stretches, one pass.

    Stretches end where a window boundary meets a true-interval edge, so the
    edges inside the window are fixed within one.  A flat or exponential
    stretch is one cell, since H is monotone there; a Gaussian stretch is
    cut where H' vanishes (:func:`_gaussian_splits`), so every cell is
    monotone.  H at every cell end is a direct window integral, all computed
    up front.  A cell whose ends flip sign, or of which exactly one end sits
    on the threshold, holds one crossing: an end on the threshold is the
    root, other roots are closed form for flat and exponential windows and
    narrowed to 1e-9 in time for Gaussian ones.  The truth flips at the
    roots of the flip cells only.
    """
    p = threshold
    t0, t_end = _verdict_span(kernel, sig)
    edges = np.concatenate([sig.starts, sig.ends])
    events = np.concatenate([edges - kernel.lower, edges - kernel.upper])
    events = np.unique(events[(events > t0 + 1e-15) & (events < t_end - 1e-15)])
    bounds = np.concatenate([[t0], events, [t_end]])
    gaussian = isinstance(kernel, GaussianKernel)
    splits = _gaussian_splits(kernel, sig, bounds) if gaussian else np.empty(0)
    times = np.unique(np.concatenate([bounds, splits]))

    hs = _grid_integrals(kernel, sig, times)
    if hs.min() < -_H_DRIFT or hs.max() > 1.0 + _H_DRIFT:
        raise SclError("convolution value drifted out of [0, 1]")
    th = _thetas(hs, p)
    truths = th >= 0.0
    flip = truths[1:] != truths[:-1]
    # a one-sided touch of the threshold is an exact-equality plateau edge,
    # which belongs in the crossings
    risky = flip | ((th[1:] == 0.0) != (th[:-1] == 0.0))

    cells = np.flatnonzero(risky)
    x0, x1 = times[cells], times[cells + 1]
    th0, th1 = th[cells], th[cells + 1]
    # an end on the threshold is the root
    roots = np.where(th0 == 0.0, x0, x1)
    solve = np.flatnonzero((th0 != 0.0) & (th1 != 0.0))
    if gaussian:
        def positive(xs):
            return _thetas(_grid_integrals(kernel, sig, xs.ravel()), p).reshape(xs.shape) >= 0.0
        roots[solve] = _narrow(positive, x0[solve], x1[solve], th0[solve] >= 0.0)
    else:
        for i in solve.tolist():
            roots[i] = x0[i] + _stretch_root(kernel, x1[i] - x0[i], th0[i], th1[i])

    crossings: list[float] = []
    for root in roots.tolist():
        if not crossings or abs(root - crossings[-1]) > _ZERO_BAND:
            crossings.append(root)
    flips = roots[flip[cells]]

    # the last stretch's windows reach the trace end, so extending the
    # trace can perturb its H values at rounding level; anything
    # threshold-delicate there is not final yet
    last = times >= bounds[-2]
    delicate = np.any(np.abs(th[last]) <= 1e-11) or np.any(risky[last[:-1]])
    stable_until = float(bounds[-2]) if delicate else t_end

    signal = _alternating(t0, t_end, bool(truths[0]), flips)
    verdict = VerdictSignal(signal, tuple(crossings), stable_until)
    return ConvEvaluation(verdict, times, hs)


def _conv_dispatch(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                   config: MonitorConfig) -> ConvEvaluation:
    if config.evaluator == "oracle":
        return eval_conv_oracle(kernel, threshold, sig, kernel.width / _ORACLE_CELLS)
    return eval_conv_efficient(kernel, threshold, sig)


def _align(a: BooleanSignal, b: BooleanSignal) -> tuple[BooleanSignal, BooleanSignal]:
    end = min(a.end, b.end)
    if a.end != end:
        a = restrict_domain(a, (a.start, end))
    if b.end != end:
        b = restrict_domain(b, (b.start, end))
    return a, b


def _eval_node(trace: PiecewiseConstantSignal, f: Formula, config: MonitorConfig,
               ) -> tuple[BooleanSignal, tuple[float, ...], float]:
    match f:
        case Const(value):
            full = BooleanSignal.always if value else BooleanSignal.never
            return full(0.0, trace.duration), (), math.inf
        case Atom():
            return eval_atom(trace, f), (), math.inf
        case Not(child):
            sig, _, stable = _eval_node(trace, child, config)
            return boolean_not(sig), (), stable
        case Or(left, right) | And(left, right) | Implies(left, right):
            a, _, stable_a = _eval_node(trace, left, config)
            b, _, stable_b = _eval_node(trace, right, config)
            a, b = _align(a, b)
            stable = min(stable_a, stable_b)
            if isinstance(f, Or):
                return boolean_or(a, b), (), stable
            if isinstance(f, And):
                return boolean_and(a, b), (), stable
            return boolean_or(boolean_not(a), b), (), stable
        case Conv(kernel, threshold, child):
            sig, _, child_stable = _eval_node(trace, child, config)
            ev = _conv_dispatch(kernel, threshold, sig, config)
            stable = min(ev.verdict.stable_until, child_stable - kernel.upper)
            return ev.verdict.signal, ev.verdict.crossings, stable
        case ConvDual(kernel, threshold, child):
            sig, _, child_stable = _eval_node(trace, child, config)
            ev = _conv_dispatch(kernel, 1.0 - threshold, boolean_not(sig), config)
            stable = min(ev.verdict.stable_until, child_stable - kernel.upper)
            return boolean_not(ev.verdict.signal), ev.verdict.crossings, stable
    raise SclError(f"not a formula: {f!r}")


def monitor(trace: PiecewiseConstantSignal, f: Formula,
            config: MonitorConfig | None = None) -> VerdictSignal:
    """Truth signal of ``f`` over ``[0, duration - horizon(f)]``.

    The formula is satisfied by the trace iff the verdict holds at time 0.
    """
    config = config or MonitorConfig()
    needed = horizon(f)
    if needed > trace.duration + 1e-12:
        raise HorizonError(
            f"formula horizon {needed:.6g} exceeds trace duration "
            f"{trace.duration:.6g} by {needed - trace.duration:.6g}"
        )
    signal, crossings, stable = _eval_node(trace, f, config)
    return VerdictSignal(signal, crossings, min(stable, signal.end))
