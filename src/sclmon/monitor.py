"""Boolean monitoring: truth signals for formulas over piecewise-constant traces.

One evaluator, :func:`eval_conv_efficient`, computes the convolution value
H(t) (kernel-weighted coverage of the child truth signal in the window
anchored at t) and compares it with the threshold p as computed, with no
tolerance band.  The verdict span is split into stretches bounded by the
events where a window boundary meets a true-interval edge, strictly inside
the span, so the edge set inside the window is constant per stretch.  There H
is linear (flat kernels) or ``C + D*exp(-rate*x)`` (exponential kernels), so
it is sampled at the stretch bounds only, and a crossing is solved in closed
form.  A Gaussian stretch is also cut where H' vanishes
(:func:`_gaussian_splits`), so every cell is monotone and a crossing is
narrowed inside its cell to the double where H meets p.  No kernel needs an
integration step.  The tests check it against a brute-force grid oracle
with window integrals of its own.

One rule, for every p and kernel, decides where H is exactly 0 or 1.  Edge x
enters the windows at ``x - upper`` and leaves them at ``x - lower``; it lies
strictly inside the window anchored at t iff ``x - upper < t < x - lower``,
the test robustness uses at a p of 0 or 1.  Where no edge does, an odd count
of passed edges means the window lies in a true interval, so H is exactly 1,
else exactly 0, with no window integral.  That holds all through a *quiet*
stretch, whose windows hold no child edge; :func:`_steady` applies it to a
span that is one quiet stretch, before any event is built, the case a steady
streaming poll mostly meets.  Any other H lies strictly between 0 and 1.  At
a p of 0 or 1 (``G``, ``F``) the evaluator writes 0.5 for it, with no window
integral or H' split; at other p it is a direct window integral, computed in
one pass over all such samples, so H at a time depends only on that time and
the signal, not on where evaluation began.

The dual operator is evaluated structurally as the complement of the
complemented child at threshold ``1 - p``, which realizes its strict
comparison up to sets of measure zero.

Verdicts carry a ``stable_until`` time: extending the trace can never change
the verdict before it.  Only the final stretch touches the current trace end,
and only what a window integral decides there can still move: at 0 < p < 1, a
cell holding a crossing or an integrated sample within 1e-11 of p.  An exact
sample is final, so at a p of 0 or 1 nothing is held back; everything else is
reproduced bit-for-bit on any longer trace.  The streaming facade emits up to
this boundary, which makes online output exactly equal to offline.

The formula recursion is span-restricted: a node is evaluated over
``[lo, evaluable end]``.  :func:`monitor` is the span from 0.  A window node
may start its own evaluation at a *restart point* taken from an earlier
evaluation of a shorter prefix: that evaluation's span end, when ``lo`` is
that end and its last stretch was quiet and stable to it, or else a point
before what was stable there, one of its stretch bounds or a point inside a
quiet stretch.  From there it finds the same later stretches, H samples and
roots as a run from 0, so its verdict, cut to ``[lo, ...]`` when it started
earlier, equals the offline one bit for bit.  The streaming facade keeps
these points between polls and so re-evaluates only the unresolved tail.
"""

from __future__ import annotations

import bisect
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
    evaluable_end,
)
from .kernels import _ERFC_ZERO, BoundedKernel, FlatKernel, GaussianKernel
from .signals import (
    BooleanSignal,
    PiecewiseConstantSignal,
    boolean_and,
    boolean_not,
    boolean_or,
    restrict_domain,
    sorted_unique,
)

_H_DRIFT = 1e-6        # hard bound on numerical drift of H outside [0, 1]
_CHUNK = 1 << 16       # anchor-interval pairs per broadcast mass call
_PROBES = np.arange(1, 128) / 128.0  # interior points of a root bracket per round


@dataclass(frozen=True)
class VerdictSignal:
    """Truth signal of a formula over its evaluable horizon.

    ``crossings`` are the times where the convolution value of a windowed
    root, seen through any ``!``, met its threshold (exact-equality plateau
    edges included; a Gaussian one is the double with H >= p next to one
    below p); such a verdict only flips there or at the domain bounds.  An
    atom or a connective at the root reports none.
    ``stable_until`` bounds the prefix that cannot change when the trace is
    extended (see module docstring).
    """

    signal: BooleanSignal
    crossings: tuple[float, ...] = ()
    stable_until: float = math.inf

    @classmethod
    def _unchecked(cls, signal: BooleanSignal, crossings: tuple[float, ...],
                   stable_until: float) -> "VerdictSignal":
        """A verdict taken as it is, with no dataclass ``__init__`` (the
        evaluator's own, per poll)."""
        verdict = object.__new__(cls)
        vars(verdict).update(signal=signal, crossings=crossings, stable_until=stable_until)
        return verdict

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
    """A verdict plus the H samples the evaluator actually computed.

    ``bounds`` are the stretch bounds: the times from which a fresh
    evaluation of the same signal, cut to start there, finds the same later
    samples and roots.  ``quiet`` says per stretch whether its windows hold
    no child edge, so that H is exactly 0 or 1 all through it.
    """

    verdict: VerdictSignal
    times: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    quiet: np.ndarray | tuple[bool, ...]

    @classmethod
    def _unchecked(cls, verdict: VerdictSignal, times: np.ndarray, values: np.ndarray,
                   bounds: np.ndarray, quiet: np.ndarray | tuple[bool, ...],
                   ) -> "ConvEvaluation":
        """An evaluation taken as it is, with no dataclass ``__init__``."""
        ev = object.__new__(cls)
        vars(ev).update(verdict=verdict, times=times, values=values, bounds=bounds, quiet=quiet)
        return ev


def _verdict_span(kernel: BoundedKernel, sig: BooleanSignal) -> tuple[float, float]:
    t0 = sig.start
    t_end = sig.end - kernel.upper
    if t_end < t0 - 1e-12:
        raise HorizonError(
            f"signal domain [{sig.start}, {sig.end}] too short for window "
            f"[{kernel.lower}, {kernel.upper}]: needs {kernel.upper - (sig.end - sig.start):.6g} more"
        )
    return t0, max(t_end, t0)


def _framed(first: float, inner: np.ndarray, last: float) -> np.ndarray:
    """The array ``[first, *inner, last]``."""
    out = np.empty(len(inner) + 2)
    out[0], out[1:-1], out[-1] = first, inner, last
    return out


def _alternating(t0: float, t_end: float, first: bool,
                 flips: np.ndarray | list[float]) -> BooleanSignal:
    """Truth signal over ``[t0, t_end]`` that starts as ``first`` and flips
    at each of the (sorted) ``flips``.

    The cuts pair up into true-intervals; a pair of coinciding cuts is a
    zero-length interval, which is dropped, and a kept interval whose start
    coincides with the previous kept one's end is merged into it.
    """
    cuts = _framed(t0, flips, t_end)[0 if first else 1:]
    n = len(cuts) // 2
    starts, ends = cuts[0:2 * n:2], cuts[1:2 * n:2]
    if t0 == t_end:
        # the point is true when a pair of cuts holds it
        return BooleanSignal._degenerate(t0, t_end, np.any((starts <= t0) & (t0 <= ends)))
    kept = ends > starts
    starts, ends = starts[kept], ends[kept]
    # a run opens at the first start and at each one apart from the end
    # before it, and closes at the end before the next run and at the last
    opens = np.empty(len(starts) + 1, dtype=bool)
    opens[0] = opens[-1] = True
    np.greater(starts[1:], ends[:-1], out=opens[1:-1])
    starts, ends = starts[opens[:-1]], ends[opens[1:]]
    starts.setflags(write=False)
    ends.setflags(write=False)
    return BooleanSignal._unchecked(t0, t_end, starts, ends)


_COMPARE = {">=": np.greater_equal, ">": np.greater, "<=": np.less_equal, "<": np.less}


def eval_atom(trace: PiecewiseConstantSignal, atom: Atom, lo: float = 0.0) -> BooleanSignal:
    """Truth signal of a threshold comparison over ``[lo, duration]``.

    It reads the samples from the one whose segment holds ``lo`` on
    (:meth:`PiecewiseConstantSignal.segment_index`), so its cost is that of
    the span, not of the trace.
    """
    lo, duration = float(lo), trace.duration
    if not lo <= duration:
        raise SclError(f"atom span [{lo}, {duration}] is empty")
    first = max(int(trace.segment_index(lo)), 0)
    times = trace.times[first:]
    values = trace.variable_values(atom.variable)[first:]
    compare = _COMPARE[atom.op]
    if lo == duration:
        return BooleanSignal._degenerate(lo, duration, compare(values[0], atom.threshold))
    # a last sample at the duration starts no segment
    bounds = np.concatenate((times, [duration])) if times[-1] < duration else times
    # each run of true segments, between false pads, is one interval, from
    # its first segment's start to its last one's end; only the first can
    # start before lo
    true = np.zeros(len(bounds) + 1, dtype=bool)
    compare(values[:len(bounds) - 1], atom.threshold, out=true[1:-1])
    cuts = bounds[np.not_equal(true[1:], true[:-1]).nonzero()[0]]
    if len(cuts) and lo > cuts[0]:
        cuts[0] = lo
    # read-only once, and so are its two views
    cuts.setflags(write=False)
    return BooleanSignal._unchecked(lo, duration, cuts[0::2], cuts[1::2])


def _grid_integrals(kernel: BoundedKernel, sig: BooleanSignal,
                    ts: np.ndarray) -> np.ndarray:
    """Window integrals of ``sig`` at the anchors ``ts``.

    Each value is a plain running sum, in time order, of the masses of the
    intervals in its window's reach.  Anchor-interval pairs go through one
    ``masses`` call, on an ``(n, 2)`` array of each pair's start and end,
    per run of anchors holding at most ``_CHUNK`` pairs, so memory stays
    bounded, a value depends only on its anchor, not on the run that took it
    in, and prefixes of a growing trace stay bit-identical.
    """
    bounds = np.array((sig.starts, sig.ends))
    if len(sig.ends) and sig.ends[-1] == sig.end:
        # the interval reaching the signal's end reaches every window's end,
        # also that of a last window which rounding put past it
        bounds[1, -1] = np.inf
    starts, ends = bounds[0], bounds[1]
    lo, hi = kernel.lower, kernel.upper
    first = ends.searchsorted(ts + lo, side="left")
    last = starts.searchsorted(ts + hi, side="right")
    # never negative: an interval ending before a window starts also starts
    # before the window ends
    count = last - first
    done = count.cumsum()
    # pair k belongs to its anchor's interval k - shift: the pairs of
    # anchor a end at done[a], with its interval last[a] - 1
    shift = done - last
    h = np.empty(len(ts))
    i = pairs = 0
    while i < len(ts):
        j = max(i + 1, int(done.searchsorted(pairs + _CHUNK, side="right")))
        n, upto = count[i:j], int(done[j - 1])
        pair = np.arange(j - i).repeat(n)
        idx = np.arange(pairs, upto) - shift[i:j].repeat(n)
        # built as (2, n), so the subtraction and clip run along the pairs,
        # and passed to masses as its (n, 2) transpose
        cuts = (bounds.take(idx, axis=1) - ts[i:j][pair]).clip(lo, hi)
        h[i:j] = np.bincount(pair, kernel.masses(cuts.T)[:, 0], minlength=j - i)
        i, pairs = j, upto
    return h


def _narrow(positive_at: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray, lo_positive: np.ndarray) -> np.ndarray:
    """Roots of brackets ``[lo, hi]`` that each hold one sign change.

    Each round probes every live bracket at ``_PROBES`` interior points, in
    one call of ``positive_at`` on the 2-d array of probes, and keeps the
    piece where the sign first changes, until a round no longer shrinks it:
    its ends are then adjacent doubles, and its root is the one where
    ``positive_at`` holds.  A bracket's probes depend only on its own ends,
    so its root does not depend on the other brackets of the batch.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.arange(len(lo))
    while len(live):
        l, h = lo[live], hi[live]
        xs = l[:, None] + (h - l)[:, None] * _PROBES
        changed = positive_at(xs) != lo_positive[live, None]
        j = np.where(changed.any(axis=1), changed.argmax(axis=1), len(_PROBES))
        rows = np.arange(len(live))
        lo[live] = np.where(j > 0, xs[rows, np.maximum(j - 1, 0)], l)
        hi[live] = np.where(j < len(_PROBES), xs[rows, np.minimum(j, len(_PROBES) - 1)], h)
        # a bracket down to the spacing of doubles stops shrinking
        live = live[hi[live] - lo[live] < h - l]
    return np.where(lo_positive, lo, hi)


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


def _one_signed(u: np.ndarray, sigma: np.ndarray, weight: np.ndarray, w_hi: float) -> bool:
    """Whether ``f(w) = sum sigma_j exp(weight_j - (u_j - w)^2)`` provably
    keeps one sign on ``[0, w_hi]``.

    It does when its end values share a sign and both exceed
    ``w_hi^2/8 * max|f''|``, the most f can sag below its chord.  Since
    ``|(exp(-d^2))''| <= (4d^2 + 2) exp(-d^2)``, which falls for
    ``d >= 1/sqrt(2)``, each term's bend is bounded at its distance d from
    the interval, taken at least ``1/sqrt(2)``.
    """
    near = np.abs(u - np.clip(u, 0.0, w_hi))
    peak = weight - near * near
    shift = peak.max()
    f0 = (sigma * np.exp(weight - u * u - shift)).sum()
    f1 = (sigma * np.exp(weight - (u - w_hi) ** 2 - shift)).sum()
    d = np.maximum(near, math.sqrt(0.5))
    bend = ((4.0 * d * d + 2.0) * np.exp(weight - d * d - shift)).sum() * (w_hi * w_hi / 8.0)
    slack = 1e-12 * np.exp(peak - shift).sum()
    return bool(f0 * f1 > 0.0 and min(abs(f0), abs(f1)) > bend + slack)


def _slope_zeros(u: np.ndarray, sigma: np.ndarray, span: float) -> np.ndarray:
    """Zeros in ``(0, span)`` of ``f(w) = sum sigma_j exp(-(u_j - w)^2)``,
    ``u`` ascending, by Rolle's recursion for exponential sums.

    ``f(w) exp(-w^2)`` is ``sum beta_j exp(2 u_j w)``.  Multiplying by
    ``exp(-2 u_k w)`` and differentiating drops term k, so level k keeps
    the terms from k on, each weighted by ``prod_{i<k} 2 (u_j - u_i)``
    (kept as a log).  Zeros of level k are separated by those of level
    k + 1; the descent stops at the first level, f itself included, that
    provably keeps one sign or holds one term, and each level above it has
    its zeros narrowed between the next one's.
    """
    weights = [np.zeros(len(u))]
    k = 0
    while k < len(u) - 1 and not _one_signed(u[k:], sigma[k:], weights[k], span):
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


def _gaussian_splits(kernel: GaussianKernel, edges: np.ndarray,
                     bounds: np.ndarray) -> np.ndarray:
    """Times inside the stretches between ``bounds`` where H' vanishes.

    In a stretch from a the window's edges are fixed, so H'(t) is
    ``sum +-K(x_j - t)`` over the true-interval edges x_j inside the window
    (+ for starts), up to a positive factor ``sum sigma_j exp(-(u_j - w)^2)``
    with ``w = (t - a)/spread`` and ``u_j = (x_j - a - center)/spread``.
    Edges farther than ``_ERFC_ZERO`` spreads from the bump over the whole
    stretch move no mass a double can hold and are dropped.  ``edges`` are
    the child's interval starts and ends, interleaved in time order.  Each
    stretch with two or more edges in reach goes to :func:`_slope_zeros` on
    its own; one term keeps its sign.
    """
    a, b = bounds[:-1], bounds[1:]
    s, c = kernel.spread, kernel.center
    mid = 0.5 * (a + b)
    reach = _ERFC_ZERO * s
    first = np.searchsorted(edges, np.maximum(mid + kernel.lower, a + c - reach), side="right")
    last = np.searchsorted(edges, np.minimum(mid + kernel.upper, b + c + reach), side="left")
    span = (b - a) / s
    splits = [np.empty(0)]
    for j in np.flatnonzero((last - first > 1) & (b > a)).tolist():
        i, n = int(first[j]), int(last[j])
        sigma = 1.0 - 2.0 * (np.arange(i, n) % 2)     # + for a start, at an even index
        u = (edges[i:n] - a[j] - c) / s
        w = _slope_zeros(u, sigma, float(span[j]))
        splits.append(np.clip(a[j] + s * w, a[j], b[j]))
    return np.concatenate(splits)


def _steady(kernel: BoundedKernel, p: float, sig: BooleanSignal, t0: float,
            t_end: float) -> ConvEvaluation | None:
    """The span as one quiet stretch, when the child, of at most one true
    interval (more would take a search), has no edge in its windows.

    It is the general path's count in its event coordinates: each counted
    edge x has passed (``x - lower <= t0``) or is ahead
    (``x - upper >= t_end``).  H is 1 after an odd count of passed edges,
    else 0, exact all through the span, so it is stable to ``t_end``, as on
    the general path.  Any other child gives ``None``.
    """
    h = 0.0
    if len(sig.starts):
        start, end = sig.starts[0], sig.ends[0]
        for x in (start,) if end == sig.end else (start, end):
            if x - kernel.lower <= t0:
                h = 1.0 - h
            elif x - kernel.upper < t_end:
                return None
    # true all through (on a degenerate span, at its point) or never
    span = np.array((t0, t_end))
    span.setflags(write=False)
    k = int(h >= p)
    signal = BooleanSignal._unchecked(t0, t_end, span[:k], span[1:1 + k])
    verdict = VerdictSignal._unchecked(signal, (), t_end)
    return ConvEvaluation._unchecked(verdict, span, np.array((h, h)), span, (True,))


def eval_conv_efficient(kernel: BoundedKernel, threshold: float,
                        sig: BooleanSignal) -> ConvEvaluation:
    """Sliding-window evaluator: event-aligned stretches, one pass.

    Stretches end where a window boundary meets a true-interval edge, so the
    edges inside the window are fixed within one: the bounds are the span's
    ends and the events strictly inside it, and each stretch counts its
    edges at its start to tell whether it is quiet.  A flat or exponential
    stretch is one cell, since H is monotone there; at other p a Gaussian
    stretch is cut where H' vanishes (:func:`_gaussian_splits`), so every
    cell is monotone.  At every cell end whose window holds no edge strictly
    inside, H is exactly 0 or 1 from the edge counts; elsewhere it is 0.5 at
    a p of 0 or 1 and else a direct window integral, all computed up front.
    Each sample is compared with p as computed.  A cell whose ends flip sign, or
    of which exactly one end sits on the threshold, holds one crossing: an
    end on the threshold is the root, other roots are closed form for flat
    and exponential windows, and a Gaussian one is a double with H >= p next
    to one with H < p, fixed by the bracket's own ends.  The truth flips at
    the roots of the flip cells only.
    """
    p = threshold
    t0, t_end = _verdict_span(kernel, sig)
    if len(sig.starts) <= 1:
        steady = _steady(kernel, p, sig, t0, t_end)
        if steady is not None:
            return steady
    # the child's edges in time order; edge x lies strictly inside the
    # window anchored at t for x - upper < t < x - lower
    edges = np.empty(2 * len(sig.starts))
    edges[0::2], edges[1::2] = sig.starts, sig.ends
    enter, leave = edges - kernel.upper, edges - kernel.lower
    events = np.concatenate((leave, enter))
    events.sort()
    # the events strictly inside the span, each once
    inner = events[events.searchsorted(t0, side="right"):
                   events.searchsorted(t_end, side="left")]
    bounds = _framed(t0, inner, t_end)
    kept = np.empty(len(bounds), dtype=bool)
    kept[0] = kept[-1] = True
    np.not_equal(bounds[1:-1], bounds[:-2], out=kept[1:-1])
    bounds = bounds[kept]
    gaussian = isinstance(kernel, GaussianKernel) and 0.0 < p < 1.0
    times = (sorted_unique(np.concatenate([bounds, _gaussian_splits(kernel, edges, bounds)]))
             if gaussian else bounds)

    # an interval reaching the signal's end has no end edge, as in
    # _grid_integrals.  Where no edge lies strictly inside the window, H is
    # exactly 1 after an odd count of passed edges (the window lies in a
    # true interval), else exactly 0.  Any other H lies strictly between 0
    # and 1: on the far side of a p of 0 or 1, where 0.5 stands in, else a
    # window integral, the only samples that can drift
    n = len(edges) - int(len(edges) > 0 and sig.ends[-1] == sig.end)
    enter, leave = enter[:n], leave[:n]
    passed = leave.searchsorted(times, side="right")
    integrated = enter.searchsorted(times, side="left") != passed
    hs = passed % 2.0
    if p in (0.0, 1.0):
        hs[integrated] = 0.5
    elif integrated.any():
        h = _grid_integrals(kernel, sig, times[integrated])
        if h.min() < -_H_DRIFT or h.max() > 1.0 + _H_DRIFT:
            raise SclError("convolution value drifted out of [0, 1]")
        hs[integrated] = h
    # the count at each stretch's start, for _Restart's quiet flags
    firsts = bounds[:-1]
    passed = passed[:-1] if times is bounds else leave.searchsorted(firsts, side="right")
    quiet = enter.searchsorted(firsts, side="right") == passed
    th = hs - p
    # a cell whose ends differ in sign holds a crossing: a flip of the
    # truth, or a one-sided touch of the threshold, an exact-equality
    # plateau edge, which belongs in the crossings too
    sign = np.sign(th)
    cells = (sign[1:] != sign[:-1]).nonzero()[0]
    crossings: list[float] = []
    flips = np.empty(0)
    if len(cells):
        after = cells + 1
        x0, x1 = times[cells], times[after]
        th0, th1 = th[cells], th[after]
        # an end on the threshold is the root
        roots = np.where(th0 == 0.0, x0, x1)
        solve = (th0 * th1 < 0.0).nonzero()[0]
        if gaussian:
            def positive(xs):
                return _grid_integrals(kernel, sig, xs.ravel()).reshape(xs.shape) >= p
            roots[solve] = _narrow(positive, x0[solve], x1[solve], th0[solve] >= 0.0)
        else:
            for i in solve.tolist():
                roots[i] = x0[i] + _stretch_root(kernel, x1[i] - x0[i], th0[i], th1[i])
        for root in roots.tolist():
            if not crossings or root != crossings[-1]:
                crossings.append(root)
        # the truth (theta >= 0) flips where one end is negative
        flips = roots[np.minimum(th0, th1) < 0.0]

    # the last stretch ends at the trace-dependent t_end, and a longer trace
    # solves its crossings from a later end sample; at 0 < p < 1 a cell there
    # holding a crossing, or an integrated sample within 1e-11 of p, is not
    # final yet.  At a p of 0 or 1 every root is an exact sample on p, final
    last = int(times.searchsorted(bounds[-2], side="left"))
    delicate = 0.0 < p < 1.0 and (
        (len(cells) > 0 and cells[-1] >= last)
        or (abs(th[last:][integrated[last:]]) <= 1e-11).any())
    stable_until = float(bounds[-2]) if delicate else t_end

    signal = _alternating(t0, t_end, bool(th[0] >= 0.0), flips)
    verdict = VerdictSignal._unchecked(signal, tuple(crossings), stable_until)
    return ConvEvaluation._unchecked(verdict, times, hs, bounds, quiet)


def _align(a: BooleanSignal, b: BooleanSignal) -> tuple[BooleanSignal, BooleanSignal]:
    end = min(a.end, b.end)
    if a.end != end:
        a = restrict_domain(a, (a.start, end))
    if b.end != end:
        b = restrict_domain(b, (b.start, end))
    return a, b


class _Restart:
    """Where a window node's next evaluation starts: at ``at``, the restart
    point it last chose, until its last evaluation (with stretch ``bounds``
    and ``quiet`` flags, stable until ``stable``) offers a later one.

    A restart point lies at or before what the node must produce now, the
    ``lo`` it is asked for, and is one of two kinds.

    *The previous span end* ``t_end``, when ``lo`` is that end, the last
    stretch was quiet and it was stable up to ``t_end``: the case of a poll
    after one that emitted all it evaluated.  The child was then final up
    to its old end c, so a longer trace changes it only at or after c, and
    each new edge x enters the windows at ``x - upper``, at or after
    ``c - upper = t_end`` (the same subtraction), and leaves them later.  No
    event then falls strictly inside the old last stretch.  On the longer
    trace ``t_end`` is therefore an event, which a run from 0 keeps as a
    stretch bound, or a point inside a stretch whose windows still hold no
    edge, a quiet one.  From either, a run finds the same stretches, H
    samples and roots as a run from 0, and its verdict needs no cut.

    *Otherwise*, a point strictly before the next bound (so a run from it
    keeps that bound, an event strictly inside its span, as a run from 0
    does) and before what was stable then (so the child edges its stretch
    comes from are final): a busy last stretch, whose windows hold an edge,
    or one held back at 0 < p < 1, keeps this rule.  It is a stretch bound,
    never a Gaussian H' split, or, inside a quiet stretch, the ``lo`` the
    node's output is wanted from or, when that lies at or past those
    limits, the double just before them: H is the same exact 0 or 1 all
    through such a stretch, so a run may start anywhere in it.  (Before the
    stable point it is not the delicate last stretch, so that run's
    ``stable_until`` does not move either.)
    """

    __slots__ = ("at", "bounds", "quiet", "stable")

    def __init__(self) -> None:
        self.at = 0.0
        self.bounds = [0.0]
        self.stable = -math.inf                  # nothing evaluated yet

    def start_for(self, lo: float) -> float:
        bounds = self.bounds
        if lo == bounds[-1] and lo <= self.stable and self.quiet[-1]:
            self.at = lo
            return lo
        k = bisect.bisect_right(bounds, lo, 0, len(bounds) - 1) - 1
        for k in range(k, -1, -1):
            start = bounds[k]
            limit = min(bounds[k + 1], self.stable)
            if start < limit:
                inner = min(lo, math.nextafter(limit, -math.inf))
                self.at = inner if self.quiet[k] and start < inner else start
                break
        return self.at

    def record(self, ev: ConvEvaluation, stable: float) -> None:
        # Python floats, which start_for compares and steps without numpy
        self.bounds, self.quiet, self.stable = ev.bounds.tolist(), ev.quiet, stable


def _eval_node(trace: PiecewiseConstantSignal, f: Formula, lo: float,
               restarts: dict[tuple[int, ...], _Restart] | None = None, path: tuple[int, ...] = (),
               ) -> tuple[BooleanSignal, tuple[float, ...], float]:
    """Signal, crossings and ``stable_until`` of ``f`` over ``[lo, evaluable end]``.

    An atom reads the trace from its last sample at or before ``lo``; ``!``
    and the connectives pass ``lo`` on; a window node asks its child for its
    own span, which starts at ``lo`` (windows look forward), or at its
    restart point when ``restarts`` holds one for its ``path`` (child 0,
    left 0, right 1 from the root), and cuts its verdict to ``[lo, ...]``.
    Each window node's evaluation is recorded in ``restarts`` for the next
    call.
    """
    match f:
        case Const(value):
            full = BooleanSignal.always if value else BooleanSignal.never
            return full(lo, trace.duration), (), math.inf
        case Atom():
            return eval_atom(trace, f, lo), (), math.inf
        case Not(child):
            sig, crossings, stable = _eval_node(trace, child, lo, restarts, path + (0,))
            return boolean_not(sig), crossings, stable
        case Or(left, right) | And(left, right) | Implies(left, right):
            a, _, stable_a = _eval_node(trace, left, lo, restarts, path + (0,))
            b, _, stable_b = _eval_node(trace, right, lo, restarts, path + (1,))
            a, b = _align(a, b)
            stable = min(stable_a, stable_b)
            if isinstance(f, Or):
                return boolean_or(a, b), (), stable
            if isinstance(f, And):
                return boolean_and(a, b), (), stable
            return boolean_or(boolean_not(a), b), (), stable
        case Conv(kernel, threshold, child) | ConvDual(kernel, threshold, child):
            restart = None
            if restarts is not None:
                restart = restarts.get(path) or restarts.setdefault(path, _Restart())
            start = lo if restart is None else restart.start_for(lo)
            sig, _, child_stable = _eval_node(trace, child, start, restarts, path + (0,))
            dual = isinstance(f, ConvDual)
            if dual:
                # the dual is the complement of the complemented child at 1 - p
                sig, threshold = boolean_not(sig), 1.0 - threshold
            ev = eval_conv_efficient(kernel, threshold, sig)
            signal = boolean_not(ev.verdict.signal) if dual else ev.verdict.signal
            stable = min(ev.verdict.stable_until, child_stable - kernel.upper)
            if restart is not None:
                restart.record(ev, stable)
            if start < lo:
                signal = restrict_domain(signal, (lo, signal.end))
            return signal, ev.verdict.crossings, stable
    raise SclError(f"not a formula: {f!r}")


def monitor(trace: PiecewiseConstantSignal, f: Formula) -> VerdictSignal:
    """Truth signal of ``f`` over ``[0, evaluable_end(f, duration)]``.

    The formula is satisfied by the trace iff the verdict holds at time 0.
    """
    evaluable_end(f, trace.duration)
    signal, crossings, stable = _eval_node(trace, f, 0.0)
    return VerdictSignal(signal, crossings, min(stable, signal.end))
