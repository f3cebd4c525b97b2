"""Boolean monitoring: truth signals for formulas over piecewise-constant traces.

Two evaluators compute the convolution value H(t) (kernel-weighted coverage
of the child truth signal in the window anchored at t) and threshold it:

* :func:`eval_conv_oracle` -- brute force: H on a uniform grid via window
  integrals, crossings by linear interpolation.  Ground truth for the other.
* :func:`eval_conv_efficient` -- sliding window: integration is split into
  stretches bounded by the events where a window boundary meets a true-interval
  edge, so the edge set inside the window is constant per stretch.  There H is
  linear (flat kernels) or ``C + D*exp(-rate*x)`` (exponential kernels), so it
  is evaluated once, at the stretch end, and a crossing is solved in closed
  form.  Gaussian windows are sampled at the quarter points of substeps of at
  most ``max_step``, all in one vectorised call using the exact mass flux of
  the edges, and bisected to 1e-9 in time only where a cell flips.

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
_GRID_BLOCK = 256      # oracle grid points per broadcast mass call


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


def _snap01(h: float) -> float:
    if abs(h) <= _SNAP:
        return 0.0
    if abs(h - 1.0) <= _SNAP:
        return 1.0
    return h


def _snap01_array(h: np.ndarray) -> np.ndarray:
    h[np.abs(h) <= _SNAP] = 0.0
    h[np.abs(h - 1.0) <= _SNAP] = 1.0
    return h


def _theta(h: float, p: float) -> float:
    d = h - p
    return 0.0 if abs(d) <= _ZERO_BAND else d


def _verdict_span(kernel: BoundedKernel, sig: BooleanSignal) -> tuple[float, float]:
    t0 = sig.start
    t_end = sig.end - kernel.upper
    if t_end < t0 - 1e-12:
        raise HorizonError(
            f"signal domain [{sig.start}, {sig.end}] too short for window "
            f"[{kernel.lower}, {kernel.upper}]: needs {kernel.upper - (sig.end - sig.start):.6g} more"
        )
    return t0, max(t_end, t0)


class _TruthRuns:
    """Accumulates contiguous truth pieces and merges them into intervals."""

    def __init__(self, start: float):
        self._pos = start
        self._truth: bool | None = None
        self._run_start = start
        self._true_runs: list[tuple[float, float]] = []

    def push(self, end: float, truth: bool) -> None:
        if self._truth is None:
            self._truth = truth
            self._run_start = self._pos
        elif truth != self._truth:
            if self._truth:
                self._true_runs.append((self._run_start, self._pos))
            self._truth = truth
            self._run_start = self._pos
        self._pos = end

    def end_piece_at(self, end: float) -> None:
        """Move the end of the last pushed piece onto ``end``."""
        self._pos = end

    def finish(self) -> list[tuple[float, float]]:
        if self._truth:
            self._true_runs.append((self._run_start, self._pos))
        return self._true_runs


def _point_verdict(kernel: BoundedKernel, p: float, sig: BooleanSignal,
                   t0: float) -> ConvEvaluation:
    h = _snap01(kernel.weighted_integral(sig, t0))
    truth = _theta(h, p) >= 0.0
    signal = BooleanSignal.from_intervals(t0, t0, [(t0, t0)] if truth else [])
    return ConvEvaluation(VerdictSignal(signal, (), t0), np.array([t0]), np.array([h]))


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
    """Window integrals of ``sig`` at the anchors ``ts``, one broadcast mass call.

    Each value is a plain running sum over the intervals in time order.
    An interval out of a window's reach clips to an empty piece and adds an
    exact zero, so a value does not depend on how many such intervals the
    block takes in, and prefixes of a growing trace stay bit-identical.
    """
    first = int(np.searchsorted(sig.ends_array, ts[0] + kernel.lower, side="left"))
    last = int(np.searchsorted(sig.starts_array, ts[-1] + kernel.upper, side="right"))
    h = np.zeros(len(ts))
    if first < last:
        masses = kernel.mass_clipped(
            np.clip(sig.starts_array[first:last, None] - ts, kernel.lower, kernel.upper),
            np.clip(sig.ends_array[first:last, None] - ts, kernel.lower, kernel.upper))
        for row in masses:
            h += row
    return h


def eval_conv_oracle(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                     grid: float) -> ConvEvaluation:
    """Brute-force reference: H on a uniform grid, thresholded with linear
    interpolation of the crossing times."""
    if grid <= 0:
        raise SclError("oracle grid must be positive")
    t0, t_end = _verdict_span(kernel, sig)
    if t_end == t0:
        return _point_verdict(kernel, threshold, sig, t0)
    n = int(math.floor((t_end - t0) / grid))
    ts = t0 + grid * np.arange(n + 1)
    if ts[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = t_end
    hs = _snap01_array(np.concatenate([
        _grid_integrals(kernel, sig, ts[i:i + _GRID_BLOCK])
        for i in range(0, len(ts), _GRID_BLOCK)]))
    thetas = hs - threshold
    thetas[np.abs(thetas) <= _ZERO_BAND] = 0.0
    truths = thetas >= 0.0
    runs = _TruthRuns(t0)
    crossings: list[float] = []
    for i in range(len(ts) - 1):
        if truths[i + 1] != truths[i]:
            th0, th1 = thetas[i], thetas[i + 1]
            if th1 == th0:
                root = float(ts[i + 1])
            else:
                root = float(ts[i] + (ts[i + 1] - ts[i]) * (0.0 - th0) / (th1 - th0))
            root = min(max(root, float(ts[i])), float(ts[i + 1]))
            crossings.append(root)
            runs.push(root, bool(truths[i]))
            runs.push(float(ts[i + 1]), bool(truths[i + 1]))
        else:
            runs.push(float(ts[i + 1]), bool(truths[i]))
    signal = BooleanSignal.from_intervals(t0, t_end, runs.finish())
    # the final grid cell ends at the trace-dependent t_end, so crossings
    # interpolated inside it may move when the trace is extended
    stable = float(ts[-2]) if len(ts) >= 2 else t0
    verdict = VerdictSignal(signal, tuple(crossings), stable)
    return ConvEvaluation(verdict, ts, hs)


def _locate_root(phi_theta: Callable[[float], float], x_lo: float, x_hi: float,
                 th_lo: float) -> float:
    """One sign change of theta inside [x_lo, x_hi], bisected; returns the root."""
    lo_truth = th_lo >= 0.0
    while x_hi - x_lo > _TIME_TOL:
        xm = 0.5 * (x_lo + x_hi)
        if (phi_theta(xm) >= 0.0) == lo_truth:
            x_lo = xm
        else:
            x_hi = xm
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


def eval_conv_efficient(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                        max_step: float | None = None) -> ConvEvaluation:
    """Sliding-window evaluator: event-aligned stretches, exact edge flux.

    Stretches end where a window boundary meets a true-interval edge, so the
    edges inside the window are fixed within one, and H at ``t + x`` is H(t)
    plus the mass those edges gain minus the mass they lose.  H is sampled at
    the ends of cells in one vectorised call: a flat or exponential stretch is
    one cell, since H is monotone there; a Gaussian stretch is cut into
    substeps of at most ``max_step``, and each substep into quarters.  A cell
    whose ends flip sign, or of which exactly one end sits on the threshold,
    holds one crossing: closed form for flat and exponential windows,
    bisected to 1e-9 in time for Gaussian ones.
    """
    if max_step is None:
        max_step = kernel.width / 1000.0
    if max_step <= 0:
        raise SclError("integration step must be positive")
    p = threshold
    t0, t_end = _verdict_span(kernel, sig)
    if t_end == t0:
        return _point_verdict(kernel, p, sig, t0)

    starts = sig.starts_array
    ends = sig.ends_array
    n = len(starts)
    k_lo, k_hi = kernel.lower, kernel.upper
    # flat and exponential H is monotone within a stretch
    monotone = isinstance(kernel, (FlatKernel, ExponentialKernel))
    edges = np.concatenate([starts, ends])
    events = np.concatenate([edges - k_lo, edges - k_hi])
    events = np.unique(events[(events > t0 + 1e-15) & (events < t_end - 1e-15)])

    h_now = _snap01(kernel.weighted_integral(sig, t0))
    times_parts = [np.array([t0])]
    values_parts = [np.array([h_now])]
    runs = _TruthRuns(t0)
    crossings: list[float] = []
    stable_until = t_end

    lo, hi = 0, -1   # the intervals that can meet a window of this stretch
    t = t0
    ev_idx = 0
    while t < t_end:
        next_event = float(events[ev_idx]) if ev_idx < len(events) else math.inf
        stretch_end = min(next_event, t_end)
        if stretch_end == next_event:
            ev_idx += 1
        span = stretch_end - t
        if span <= 0:
            t = stretch_end
            continue
        if monotone:
            xs = np.array([span])
        else:
            n_sub = max(1, math.ceil(span / max_step - 1e-12))
            sub_hi = max_step * np.arange(1.0, n_sub + 1.0)
            np.minimum(sub_hi, span, out=sub_hi)
            sub_hi[-1] = span
            sub_lo = np.concatenate([[0.0], sub_hi[:-1]])
            sub_w = sub_hi - sub_lo
            xs = np.stack([sub_lo + 0.25 * sub_w, 0.5 * (sub_lo + sub_hi),
                           sub_lo + 0.75 * sub_w, sub_hi], axis=1).ravel()

        while lo < n and ends[lo] < t + k_lo:
            lo += 1
        while hi + 1 < n and starts[hi + 1] <= stretch_end + k_hi:
            hi += 1
        n_in = hi + 1 - lo
        edge_loc = np.concatenate((starts[lo:hi + 1], ends[lo:hi + 1]))[:, None] - t
        edge_clip = np.clip(edge_loc, k_lo, k_hi)

        def h_at(offsets: np.ndarray) -> np.ndarray:
            # one mass call: the rising edges' rows are gained, the falling edges' lost
            flux = kernel.mass_clipped(np.clip(edge_loc - offsets, k_lo, k_hi), edge_clip)
            return _snap01_array(h_now + flux[:n_in].sum(axis=0) - flux[n_in:].sum(axis=0))

        def _cell_root(x0: float, x1: float, th0: float, th1: float) -> float:
            if monotone:
                return x0 + _stretch_root(kernel, x1 - x0, th0, th1)
            return _locate_root(lambda x: _theta(float(h_at(np.array([x]))[0]), p),
                                x0, x1, th0)

        hs = h_at(xs)
        if hs.min() < -_H_DRIFT or hs.max() > 1.0 + _H_DRIFT:
            raise SclError("convolution value drifted out of [0, 1]")

        hs_list = hs.tolist()
        th_prev = _theta(h_now, p)
        x_prev = 0.0
        delicate = abs(th_prev) <= 1e-11
        for x_j, h_j in zip(xs.tolist(), hs_list):
            if x_j <= x_prev:
                continue
            th_j = _theta(h_j, p)
            # a one-sided touch of the threshold is an exact-equality
            # plateau edge, which belongs in the crossings
            risky = (th_prev >= 0.0) != (th_j >= 0.0) or (th_prev == 0.0) != (th_j == 0.0)
            delicate = delicate or risky or abs(th_j) <= 1e-11
            if risky:
                x_root = _cell_root(x_prev, x_j, th_prev, th_j)
                rt = t + x_root
                if not crossings or abs(rt - crossings[-1]) > _ZERO_BAND:
                    crossings.append(rt)
                # each side of the root takes the sign of its end
                if x_root > x_prev:
                    runs.push(rt, th_prev >= 0.0)
                if x_root < x_j:
                    runs.push(t + x_j, th_j >= 0.0)
            else:
                runs.push(t + x_j, th_prev >= 0.0)
            x_prev = x_j
            th_prev = th_j
        # t + span can fall an ulp short of stretch_end; a run ending there
        # would leave a false sliver before the next stretch or the domain end
        runs.end_piece_at(stretch_end)

        if stretch_end == t_end:
            # this stretch's windows reach the trace end, so extending the
            # trace can perturb its H values at rounding level; anything
            # threshold-delicate here is not final yet
            if delicate:
                stable_until = min(stable_until, t)
            elif not monotone:
                # a longer trace moves the probes of the last substep, which
                # may then find a crossing pair between them
                stable_until = min(stable_until, t + float(sub_lo[-1]))

        times_parts.append(t + xs)
        values_parts.append(hs)
        h_now = hs_list[-1]
        t = stretch_end

    signal = BooleanSignal.from_intervals(t0, t_end, runs.finish())
    verdict = VerdictSignal(signal, tuple(crossings), stable_until)
    return ConvEvaluation(verdict, np.concatenate(times_parts),
                          np.concatenate(values_parts))


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
