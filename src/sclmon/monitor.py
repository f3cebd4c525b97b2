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
  crossing is solved in closed form.  Gaussian stretches are sampled at the
  quarter points of substeps of at most ``max_step``, and a crossing is
  located to 1e-9 in time only where a cell flips or touches the threshold.

Both evaluators compute every H sample as a direct window integral, in one
pass over all samples, so H at a time depends only on that time and the
signal, not on where evaluation began.

The dual operator is evaluated structurally as the complement of the
complemented child at threshold ``1 - p``, which realizes its strict
comparison up to sets of measure zero.

Verdicts carry a ``stable_until`` time: extending the trace can never change
the verdict before it.  Only the final integration stretch (or oracle grid
cell) touches the current trace end, and only threshold-delicate content
there, or the last Gaussian substep, whose probes move with the trace end,
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
from .kernels import BoundedKernel, ExponentialKernel, FlatKernel
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
_BLOCK_ELEMENTS = 1 << 12  # anchors x intervals in reach per broadcast mass call
_PROBES = np.arange(1, 16) / 16.0  # interior points of a root bracket per H call


@dataclass
class MonitorConfig:
    """Knobs for :func:`monitor`.

    ``delta`` is the maximum substep of Gaussian windows, each sampled at its
    quarter points (default: window width / 1000, chosen per convolution
    node); the efficient evaluator solves flat and exponential windows per
    stretch and needs no step.  The brute-force evaluator samples at
    ``delta / 2``.
    """

    evaluator: str = "efficient"   # efficient | oracle
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.evaluator not in ("efficient", "oracle"):
            raise SclError(f"unknown evaluator {self.evaluator!r}")
        if self.delta is not None and self.delta <= 0:
            raise SclError("delta must be positive")


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


def _alternating(t0: float, t_end: float, first: bool, flips: list[float]) -> BooleanSignal:
    """Truth signal over ``[t0, t_end]`` that starts as ``first`` and flips
    at each of the (sorted) ``flips``."""
    cuts = [t0, *flips, t_end]
    skip = 0 if first else 1
    return BooleanSignal.from_intervals(t0, t_end, zip(cuts[skip::2], cuts[skip + 1::2]))


def eval_atom(trace: PiecewiseConstantSignal, atom: Atom) -> BooleanSignal:
    """Truth signal of a threshold comparison over ``[0, duration]``."""
    vals = trace.variable_values(atom.variable)
    compare = {">=": np.greater_equal, ">": np.greater,
               "<=": np.less_equal, "<": np.less}[atom.op]
    mask = compare(vals, atom.threshold)
    bounds = trace.segment_bounds()
    intervals = [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if mask[i]
    ]
    return BooleanSignal.from_intervals(0.0, trace.duration, intervals)


def _grid_integrals(kernel: BoundedKernel, sig: BooleanSignal,
                    ts: np.ndarray) -> np.ndarray:
    """Window integrals of ``sig`` at the increasing anchors ``ts``, snapped
    to exact 0 / 1, in blocks of one broadcast mass call each.

    A block holds at most ``_BLOCK_ELEMENTS`` anchors x intervals in reach.
    Each value is a plain running sum over the intervals in time order.
    An interval out of a window's reach clips to an empty piece and adds an
    exact zero, so a value depends only on its anchor, not on the block that
    took it in, and prefixes of a growing trace stay bit-identical.
    """
    starts, ends = sig.starts_array, sig.ends_array
    first = np.searchsorted(ends, ts + kernel.lower, side="left")
    last = np.searchsorted(starts, ts + kernel.upper, side="right")
    h = np.zeros(len(ts))
    i = 0
    while i < len(ts):
        cap = min(len(ts), i + _BLOCK_ELEMENTS)
        size = np.arange(1, cap - i + 1) * (last[i:cap] - first[i])
        j = i + max(1, int(np.searchsorted(size, _BLOCK_ELEMENTS, side="right")))
        lo, hi = first[i], last[j - 1]
        if lo < hi:
            block = ts[i:j]
            masses = kernel.mass_clipped(
                np.clip(starts[lo:hi, None] - block, kernel.lower, kernel.upper),
                np.clip(ends[lo:hi, None] - block, kernel.lower, kernel.upper))
            acc = h[i:j]
            for row in masses:
                acc += row
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


def _locate_root(theta_at: Callable[[np.ndarray], np.ndarray], x_lo: float,
                 x_hi: float, th_lo: float) -> float:
    """One sign change of theta inside [x_lo, x_hi]; returns the root.

    Each call of ``theta_at`` probes the bracket at ``_PROBES`` interior
    points and keeps the piece where the sign first changes, until the
    bracket is within 1e-9 in time.
    """
    lo_truth = th_lo >= 0.0
    while x_hi - x_lo > _TIME_TOL:
        xs = x_lo + (x_hi - x_lo) * _PROBES
        changed = (theta_at(xs) >= 0.0) != lo_truth
        j = int(np.argmax(changed)) if changed.any() else len(xs)
        if j > 0:
            x_lo = float(xs[j - 1])
        if j < len(xs):
            x_hi = float(xs[j])
    return 0.5 * (x_lo + x_hi)


def _stretch_root(kernel: BoundedKernel, span: float, th0: float, th1: float) -> float:
    """Offset of the crossing inside one stretch of a flat or exponential
    window, where H(t + x) is linear or ``C + D*exp(-rate*x)`` in x.

    ``th0`` and ``th1`` are theta at the stretch ends, of opposite sign or
    with exactly one of them zero; an end on the threshold is the root.
    """
    if th0 == 0.0:
        return 0.0
    if th1 == 0.0:
        return span
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


def _quarter_points(bounds: np.ndarray, max_step: float) -> tuple[np.ndarray, float]:
    """Samples of Gaussian stretches, and the start of the last substep.

    Each stretch between consecutive ``bounds`` is cut into substeps of at
    most ``max_step`` from its start, each sampled at its quarter points;
    a stretch's last sample is the next bound itself.
    """
    spans = np.diff(bounds)
    n_sub = np.maximum(1, np.ceil(spans / max_step - 1e-12)).astype(np.int64)
    first_sub = np.cumsum(n_sub) - n_sub
    k = np.arange(int(n_sub.sum())) - np.repeat(first_sub, n_sub)
    span_of = np.repeat(spans, n_sub)
    sub_lo = np.minimum(max_step * k, span_of)
    sub_hi = np.minimum(max_step * (k + 1.0), span_of)
    sub_hi[first_sub + n_sub - 1] = spans
    sub_w = sub_hi - sub_lo
    xs = np.stack([sub_lo + 0.25 * sub_w, 0.5 * (sub_lo + sub_hi),
                   sub_lo + 0.75 * sub_w, sub_hi], axis=1).ravel()
    times = np.repeat(bounds[:-1], 4 * n_sub) + xs
    times[4 * (first_sub + n_sub) - 1] = bounds[1:]
    return np.concatenate([bounds[:1], times]), float(bounds[-2] + sub_lo[-1])


def eval_conv_efficient(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                        max_step: float | None = None) -> ConvEvaluation:
    """Sliding-window evaluator: event-aligned stretches, one pass.

    Stretches end where a window boundary meets a true-interval edge, so the
    edges inside the window are fixed within one.  A flat or exponential
    stretch is one cell, since H is monotone there; a Gaussian stretch is
    cut into substeps of at most ``max_step``, and each substep into
    quarters.  H at every cell end is a direct window integral, all computed
    up front.  A cell whose ends flip sign, or of which exactly one end sits
    on the threshold, holds one crossing: closed form for flat and
    exponential windows, located to 1e-9 in time for Gaussian ones.  The
    truth flips at the roots of the flip cells only.
    """
    if max_step is None:
        max_step = kernel.width / 1000.0
    if max_step <= 0:
        raise SclError("integration step must be positive")
    p = threshold
    t0, t_end = _verdict_span(kernel, sig)
    edges = np.concatenate([sig.starts_array, sig.ends_array])
    events = np.concatenate([edges - kernel.lower, edges - kernel.upper])
    events = np.unique(events[(events > t0 + 1e-15) & (events < t_end - 1e-15)])
    bounds = np.concatenate([[t0], events, [t_end]])
    # flat and exponential H is monotone within a stretch
    monotone = isinstance(kernel, (FlatKernel, ExponentialKernel))
    if monotone:
        times = bounds
    else:
        times, last_substep = _quarter_points(bounds, max_step)
    # drop samples that do not increase, such as quarter points that round
    # onto a bound
    keep = np.concatenate([[True], times[1:] > np.maximum.accumulate(times)[:-1]])
    times = times[keep]

    hs = _grid_integrals(kernel, sig, times)
    if hs.min() < -_H_DRIFT or hs.max() > 1.0 + _H_DRIFT:
        raise SclError("convolution value drifted out of [0, 1]")
    th = _thetas(hs, p)
    truths = th >= 0.0
    flip = truths[1:] != truths[:-1]
    # a one-sided touch of the threshold is an exact-equality plateau edge,
    # which belongs in the crossings
    risky = flip | ((th[1:] == 0.0) != (th[:-1] == 0.0))

    crossings: list[float] = []
    flips: list[float] = []
    for i in np.flatnonzero(risky).tolist():
        x0, x1 = float(times[i]), float(times[i + 1])
        if monotone:
            root = x0 + _stretch_root(kernel, x1 - x0, float(th[i]), float(th[i + 1]))
        else:
            root = _locate_root(lambda xs: _thetas(_grid_integrals(kernel, sig, xs), p),
                                x0, x1, float(th[i]))
        if not crossings or abs(root - crossings[-1]) > _ZERO_BAND:
            crossings.append(root)
        if flip[i]:
            flips.append(root)

    # the last stretch's windows reach the trace end, so extending the
    # trace can perturb its H values at rounding level; anything
    # threshold-delicate there is not final yet
    last = times >= bounds[-2]
    if np.any(np.abs(th[last]) <= 1e-11) or np.any(risky[last[:-1]]):
        stable_until = float(bounds[-2])
    elif not monotone:
        # a longer trace moves the probes of the last substep, which may
        # then find a crossing pair between them
        stable_until = last_substep
    else:
        stable_until = t_end

    signal = _alternating(t0, t_end, bool(truths[0]), flips)
    verdict = VerdictSignal(signal, tuple(crossings), stable_until)
    return ConvEvaluation(verdict, times, hs)


def _conv_dispatch(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                   config: MonitorConfig) -> ConvEvaluation:
    delta = config.delta if config.delta is not None else kernel.width / 1000.0
    if config.evaluator == "oracle":
        return eval_conv_oracle(kernel, threshold, sig, delta / 2.0)
    return eval_conv_efficient(kernel, threshold, sig, delta)


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
