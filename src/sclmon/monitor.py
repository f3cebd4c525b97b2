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
integral or H' split, so every root is an exact sample on p.  At other p a
busy stretch is solved on its *extent*: from its start a to the first leave
event after a, against the child *held* from the window anchored at a on
(the edges that have entered by a, the last value kept).  Its H samples,
H' zeros and roots are then functions of a and of edges that a longer trace
cannot move, never of where the trace ends; the roots up to the stretch's
end are kept, and the sample at each real stretch bound decides the truth
there.  So every verdict is final up to its own end, at every p.

The dual operator is evaluated structurally as the complement of the
complemented child at threshold ``1 - p``, which realizes its strict
comparison up to sets of measure zero.

The formula recursion is span-restricted: a node is evaluated over
``[lo, evaluable end]``.  :func:`monitor` is the span from 0.  A window node
may start its own evaluation at a *restart point* taken from an earlier
evaluation of a shorter prefix: that evaluation's span end, when ``lo`` is
that end and its last stretch was quiet, or else one of its stretch bounds
or a point inside a quiet stretch before its next bound.  From there it
finds the same later stretches, H samples and roots as a run from 0, so its
verdict, cut to ``[lo, ...]`` when it started earlier, equals the offline
one bit for bit.  The streaming facade keeps these points between polls and
so re-evaluates only the unresolved tail.
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
    atom or a connective at the root reports none.  Both are final up to
    the verdict's end: a longer trace reproduces them there bit for bit
    (see module docstring).
    """

    signal: BooleanSignal
    crossings: tuple[float, ...] = ()

    @classmethod
    def _unchecked(cls, signal: BooleanSignal, crossings: tuple[float, ...]) -> "VerdictSignal":
        """A verdict taken as it is, with no dataclass ``__init__`` (the
        evaluator's own, per poll)."""
        verdict = object.__new__(cls)
        vars(verdict).update(signal=signal, crossings=crossings)
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
    """A verdict plus the H samples the evaluator took inside its span.

    ``times`` are the stretch bounds and the Gaussian H' zeros inside the
    stretches, with H there in ``values``; samples at extent ends, and zeros
    past a stretch's end, are left out.  ``bounds`` are the stretch bounds:
    the times from which a fresh evaluation of the same signal, cut to start
    there, finds the same later samples and roots.  ``quiet`` says per
    stretch whether its windows hold no child edge, so that H is exactly 0
    or 1 all through it.
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


def _grid_integrals(kernel: BoundedKernel, sig: BooleanSignal, ts: np.ndarray,
                    reach: np.ndarray) -> np.ndarray:
    """Window integrals at the anchors ``ts`` of ``sig`` as it stands after
    its first ``reach`` edges.

    The edges are the interval starts and ends in time order, and anchor i
    reads the first ``reach[i]`` of them, holding the value after the last:
    an interval whose end it does not read holds on to ``inf``, as does one
    reaching the signal's end, which reaches every window's end.  The edges
    that have entered the window anchored at t (``x - upper <= t``) are the
    signal itself over that window.  Each value is a plain running sum, in
    time order, of the masses of the intervals in its window's reach.
    Anchor-interval pairs go through one ``masses`` call, on an ``(n, 2)``
    array of each pair's start and end, per run of anchors holding at most
    ``_CHUNK`` pairs, so memory stays bounded, a value depends only on its
    anchor and reach, not on the run that took it in, and prefixes of a
    growing trace stay bit-identical.
    """
    bounds = np.array((sig.starts, sig.ends))
    if len(sig.ends) and sig.ends[-1] == sig.end:
        bounds[1, -1] = np.inf
    lo, hi = kernel.lower, kernel.upper
    first = bounds[1].searchsorted(ts + lo, side="left")
    # interval k's end is edge 2k + 1: an anchor reads the ends of its first
    # reach // 2 intervals and the start of one more when reach is odd
    closed, last = reach >> 1, (reach + 1) >> 1
    # never negative: an interval ending before a window starts also entered
    # before it
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
        cut = bounds.take(idx, axis=1)
        cut[1][idx >= closed[i:j].repeat(n)] = np.inf
        cuts = (cut - ts[i:j][pair]).clip(lo, hi)
        h[i:j] = np.bincount(pair, kernel.masses(cuts.T)[:, 0], minlength=j - i)
        i, pairs = j, upto
    return h


def _narrow(positive_at: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray, lo_positive: np.ndarray, after: float | np.ndarray = -math.inf,
            upto: float | np.ndarray = math.inf) -> np.ndarray:
    """Roots of brackets ``[lo, hi]`` that each hold one sign change.

    Each round probes every live bracket at ``_PROBES`` interior points, in
    one call of ``positive_at`` on the 2-d array of probes and the indices
    of their brackets, and keeps the piece where the sign first changes,
    until a round no longer shrinks it: its ends are then adjacent doubles,
    and its root is the one where ``positive_at`` holds.  Only a root in
    ``[after, upto]`` is wanted: a bracket lying wholly before ``after`` or
    wholly past ``upto`` stops, with its root on that side.  A bracket's
    probes depend only on its own ends, so its root, and where it stops, do
    not depend on the other brackets of the batch.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.arange(len(lo))
    while len(live := live[((hi >= after) & (lo <= upto))[live]]):
        l, h = lo[live], hi[live]
        xs = l[:, None] + (h - l)[:, None] * _PROBES
        changed = positive_at(xs, live) != lo_positive[live, None]
        j = np.where(changed.any(axis=1), changed.argmax(axis=1), len(_PROBES))
        rows = np.arange(len(live))
        lo[live] = np.where(j > 0, xs[rows, np.maximum(j - 1, 0)], l)
        hi[live] = np.where(j < len(_PROBES), xs[rows, np.minimum(j, len(_PROBES) - 1)], h)
        # a bracket down to the spacing of doubles stops shrinking
        live = live[hi[live] - lo[live] < h - l]
    return np.where(lo_positive, lo, hi)


def _stretch_root(kernel: BoundedKernel, span: float, th0: float, th1: float) -> float:
    """Offset of the crossing inside one extent of a flat or exponential
    window, where H(t + x) is linear or ``C + D*exp(-rate*x)`` in x.

    ``th0`` and ``th1`` are theta at the extent's ends, nonzero and of
    opposite sign.  An extent is at most one window wide, whose exponent the
    kernel bounds, so ``expm1`` cannot overflow.
    """
    if isinstance(kernel, FlatKernel):
        x = span * (-th0 / (th1 - th0))
    else:
        x = -math.log1p(-th0 / (th1 - th0) * math.expm1(-kernel.rate * span)) / kernel.rate
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
    its zeros narrowed between the next one's.  Terms at one u, edges that
    rounding put at one place, are summed first, so the u are distinct.
    """
    at = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1])))
    u, sigma = u[at], np.add.reduceat(sigma, at)
    weights = [np.zeros(len(u))]
    k = 0
    while k < len(u) - 1 and not _one_signed(u[k:], sigma[k:], weights[k], span):
        weights.append(weights[k][1:] + np.log(2.0 * (u[k + 1:] - u[k])))
        k += 1
    zeros = np.empty(0)
    for k in range(k - 1, -1, -1):
        def positive(w, rows=None, k=k):
            a = weights[k] - (u[k:] - w[..., None]) ** 2
            return (sigma[k:] * np.exp(a - a.max(axis=-1, keepdims=True))).sum(axis=-1) >= 0.0
        ends = np.concatenate(([0.0], zeros, [span]))
        pos = positive(ends)
        flip = pos[1:] != pos[:-1]
        zeros = _narrow(positive, ends[:-1][flip], ends[1:][flip], pos[:-1][flip])
    return zeros


def _gaussian_splits(kernel: GaussianKernel, edges: np.ndarray, a: np.ndarray,
                     e: np.ndarray, first: np.ndarray, last: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Times strictly inside the extents ``[a, e]`` where the held H' vanishes,
    and the index of the extent each lies in.

    Over an extent the window holds the edges ``edges[first:last]`` (+ for
    a start, at an even index), so H'(t) is ``sum +-K(x_j - t)`` over them,
    up to a positive factor ``sum sigma_j exp(-(u_j - w)^2)`` with
    ``w = (t - a)/spread`` and ``u_j = (x_j - a - center)/spread``.  Edges
    farther than ``_ERFC_ZERO`` spreads from the bump over the whole extent
    move no mass a double can hold and are dropped.  Each extent with two or
    more edges in reach goes to :func:`_slope_zeros` on its own; one term
    keeps its sign.
    """
    s, c = kernel.spread, kernel.center
    reach = _ERFC_ZERO * s
    first = np.maximum(first, np.searchsorted(edges, a + c - reach, side="right"))
    last = np.minimum(last, np.searchsorted(edges, e + c + reach, side="left"))
    span = (e - a) / s
    splits, owner = [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for j in np.flatnonzero(last - first > 1).tolist():
        i, n = int(first[j]), int(last[j])
        sigma = 1.0 - 2.0 * (np.arange(i, n) % 2)     # + for a start, at an even index
        u = (edges[i:n] - a[j] - c) / s
        x = a[j] + s * _slope_zeros(u, sigma, float(span[j]))
        x = x[(x > a[j]) & (x < e[j])]
        splits.append(x)
        owner.append(np.full(len(x), j))
    return np.concatenate(splits), np.concatenate(owner)


def _steady(kernel: BoundedKernel, p: float, sig: BooleanSignal, t0: float,
            t_end: float, lo: float) -> ConvEvaluation | None:
    """The span as one quiet stretch, when the child, of at most one true
    interval (more would take a search), has no edge in its windows; the
    verdict over ``[lo, t_end]``.

    It is the general path's count in its event coordinates: each counted
    edge x has passed (``x - lower <= t0``) or is ahead
    (``x - upper >= t_end``).  H is 1 after an odd count of passed edges,
    else 0, exact all through the span, as on the general path.  Any other
    child gives ``None``.
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
    span = np.array((t0, lo, t_end))
    span.setflags(write=False)
    k = int(h >= p)
    verdict = VerdictSignal._unchecked(
        BooleanSignal._unchecked(lo, t_end, span[1:1 + k], span[2:2 + k]), ())
    return ConvEvaluation._unchecked(verdict, span[::2], np.array((h, h)), span[::2], (True,))


def eval_conv_efficient(kernel: BoundedKernel, threshold: float, sig: BooleanSignal,
                        lo: float | None = None) -> ConvEvaluation:
    """Sliding-window evaluator: event-aligned stretches, one pass; the
    verdict over ``[lo, t_end]``, from the span start by default.

    Stretches end where a window boundary meets a true-interval edge, so the
    edges inside the window are fixed within one: the bounds are the span's
    ends and the events strictly inside it, and each stretch counts its
    edges at its start to tell whether it is quiet.  H is sampled at every
    bound: exactly 0 or 1 from the edge counts where the window holds no
    edge strictly inside, elsewhere 0.5 at a p of 0 or 1 and else a direct
    window integral, all computed up front.  At a p of 0 or 1, and on a
    quiet stretch, a stretch is one cell between its bounds.  At other p a
    busy stretch from a is solved on its *extent* ``[a, E]``, E the first
    leave event after a, against the child held from a on
    (:func:`_grid_integrals`), which is the child itself up to the
    stretch's end: H is also sampled at E, and a Gaussian extent is cut
    where the held H' vanishes (:func:`_gaussian_splits`), so every cell is
    monotone.  Each sample is compared with p as computed.  A cell whose
    ends flip sign, or of which exactly one end sits on the threshold, holds
    one crossing: an end on the threshold is the root, other roots are
    closed form for flat and exponential windows, and a Gaussian one is a
    double with H >= p next to one with H < p, fixed by the bracket's own
    ends.  Roots up to their stretch's end are kept, and the truth flips at
    those of flip cells.  The sample at each inner bound decides the truth
    there: where the truth a stretch's roots leave at its end differs from
    it, which only rounding can do, the flip sits at that bound.  So the
    truth at ``lo`` takes only the stretch holding it, and a Gaussian root
    is narrowed only as far as the verdict needs it, in that stretch or a
    later one and not before ``lo`` (:func:`_narrow`); the evaluation,
    bounds and samples included, still covers the whole span.
    """
    p = threshold
    t0, t_end = _verdict_span(kernel, sig)
    lo = t0 if lo is None else lo
    if len(sig.starts) <= 1:
        steady = _steady(kernel, p, sig, t0, t_end, lo)
        if steady is not None:
            return steady
    # the child's edges in time order; edge x lies strictly inside the
    # window anchored at t for x - upper < t < x - lower
    edges = np.empty(2 * len(sig.starts))
    edges[0::2], edges[1::2] = sig.starts, sig.ends
    enter, leave = edges - kernel.upper, edges - kernel.lower
    # the events strictly inside the span, each once
    events = sorted_unique(np.concatenate((leave, enter)))
    bounds = _framed(t0, events[events.searchsorted(t0, side="right"):
                                events.searchsorted(t_end, side="left")], t_end)
    a, b = bounds[:-1], bounds[1:]

    # an interval reaching the signal's end has no end edge, as in
    # _grid_integrals.  Where no edge lies strictly inside the window, H is
    # exactly 1 after an odd count of passed edges (the window lies in a
    # true interval), else exactly 0.  Any other H lies strictly between 0
    # and 1: on the far side of a p of 0 or 1, where 0.5 stands in, else a
    # window integral, the only samples that can drift
    n = len(edges) - int(len(edges) > 0 and sig.ends[-1] == sig.end)
    edges, enter, leave = edges[:n], enter[:n], leave[:n]
    passed = leave.searchsorted(bounds, side="right")
    integrated = enter.searchsorted(bounds, side="left") != passed
    # the edges that have entered the window anchored at each bound, which
    # are all a window integral there reads
    entered = enter.searchsorted(bounds, side="right")
    quiet = entered[:-1] == passed[:-1]
    hs = passed % 2.0
    # the stretch holding lo: the truth there takes it from the sample at its
    # start, and an earlier stretch's roots are not wanted
    k0 = min(int(bounds.searchsorted(lo, side="right")) - 1, len(a) - 1)
    held = owner = np.empty(0, dtype=np.intp)
    splits = h_splits = np.empty(0)
    if p in (0.0, 1.0):
        # every cell is a stretch, between samples, and its root an exact
        # sample on p
        hs[integrated] = 0.5
        stretch, x0, x1, h0, h1 = np.arange(k0, len(a)), a[k0:], b[k0:], hs[k0:-1], hs[k0 + 1:]
    else:
        # a quiet stretch holds no crossing; a busy one's extent ends where
        # the first of the edges in its windows, edges[passed:entered],
        # leaves, and the held H there is exact when all of them have left
        held = (~quiet[k0:]).nonzero()[0] + k0
        first, last = passed[held], entered[held]
        ext, h_ext = leave[first], last % 2.0
        open_ = leave.searchsorted(ext, side="right") < last
        if isinstance(kernel, GaussianKernel) and len(held):
            splits, owner = _gaussian_splits(kernel, edges, a[held], ext, first, last)
        anchors = np.concatenate((bounds[integrated], splits, ext[open_]))
        if len(anchors):
            h = _grid_integrals(kernel, sig, anchors,
                                np.concatenate((entered[integrated], last[owner], last[open_])))
            if h.min() < -_H_DRIFT or h.max() > 1.0 + _H_DRIFT:
                raise SclError("convolution value drifted out of [0, 1]")
            k, m = np.count_nonzero(integrated), len(splits)
            hs[integrated], h_splits, h_ext[open_] = h[:k], h[k:k + m], h[k + m:]
        # each busy stretch's cell runs over its extent, cut at its H' zeros
        stretch, x0, x1, h0, h1 = held, a[held], ext, hs[held], h_ext
        if len(splits):
            x0, h0 = np.insert(x0, owner + 1, splits), np.insert(h0, owner + 1, h_splits)
            x1, h1, stretch = (np.insert(v, owner, w) for v, w in
                               ((x1, splits), (h1, h_splits), (stretch, held[owner])))
    th0, th1, limit = h0 - p, h1 - p, b[stretch]
    # a cell starting inside its stretch whose ends differ in sign holds a
    # crossing: a flip of the truth, or a one-sided touch of the threshold,
    # an exact-equality plateau edge, which belongs in the crossings too
    cells = (x0 < limit) & (np.sign(th0) != np.sign(th1))
    # an end on the threshold is the root
    roots = np.where(th0 == 0.0, x0, x1)
    solve = (cells & (th0 * th1 < 0.0)).nonzero()[0]
    if isinstance(kernel, GaussianKernel):
        reach = entered[stretch[solve]]

        def positive(xs, rows):
            return _grid_integrals(kernel, sig, xs.ravel(),
                                   reach[rows].repeat(xs.shape[1])).reshape(xs.shape) >= p
        roots[solve] = _narrow(positive, x0[solve], x1[solve], th0[solve] >= 0.0,
                               lo, limit[solve])
    else:
        for i in solve.tolist():
            roots[i] = x0[i] + _stretch_root(kernel, x1[i] - x0[i], th0[i], th1[i])
    # the roots up to their stretch's end; the truth (theta >= 0) flips at
    # those where one end is negative
    kept = cells & (roots <= limit)
    flip = kept & (np.minimum(th0, th1) < 0.0)
    roots, flips = roots[kept], roots[flip]
    # the sample at the real bound ending a stretch solved on its extent
    # decides the truth there; where the truth its roots leave differs from
    # it, which only rounding can do, the flip sits at that bound.  A quiet
    # stretch holds no flip and ends on its own exact sample, so it passes
    truth, odd = hs >= p, np.bincount(stretch[flip], minlength=len(a)) % 2 == 1
    late = b[k0:-1][(truth[k0:-2] != odd[k0:-1]) != truth[k0 + 1:-1]]
    if len(late):
        roots, flips = (np.sort(np.concatenate((v, late))) for v in (roots, flips))
    # a root before lo is only known to lie there
    before = int(flips.searchsorted(lo))
    crossings = tuple(dict.fromkeys(roots[roots.searchsorted(lo):].tolist()))
    verdict = VerdictSignal._unchecked(
        _alternating(lo, t_end, bool(truth[k0]) != (before % 2 == 1), flips[before:]), crossings)
    times, values = bounds, hs
    if len(splits):
        # the H' zeros inside their stretch, before its end bound
        inside = (splits < b[held[owner]]).nonzero()[0]
        times, values = (np.insert(v, held[owner[inside]] + 1, w[inside])
                         for v, w in ((bounds, splits), (hs, h_splits)))
    return ConvEvaluation._unchecked(verdict, times, values, bounds, quiet)


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
    and ``quiet`` flags) offers a later one.

    A restart point lies at or before what the node must produce now, the
    ``lo`` it is asked for, and is one of two kinds.

    *The previous span end* ``t_end``, when ``lo`` is that end and the last
    stretch was quiet: the case of a poll after one that emitted all it
    evaluated.  The child was final up to its old end c, so a longer trace
    changes it only at or after c, and each new edge x enters the windows at
    ``x - upper``, at or after ``c - upper = t_end`` (the same subtraction),
    and leaves them later.  No event then falls strictly inside the old
    last stretch.  On the longer trace ``t_end`` is therefore an event,
    which a run from 0 keeps as a stretch bound, or a point inside a stretch
    whose windows still hold no edge, a quiet one.  From either, a run finds
    the same stretches, H samples and roots as a run from 0, and its
    verdict needs no cut.

    *Otherwise*, a point strictly before the next bound, so that a run from
    it keeps that bound, an event strictly inside its span, as a run from 0
    does.  It is a stretch bound, never a Gaussian H' split, so a busy
    stretch's roots come from the same start a; or, inside a quiet stretch,
    the ``lo`` the node's output is wanted from or, when that lies at or
    past the next bound, the double just before it: H is the same exact 0 or
    1 all through such a stretch, so a run may start anywhere in it.
    """

    __slots__ = ("at", "bounds", "quiet")

    def __init__(self) -> None:
        # nothing evaluated yet
        self.at, self.bounds, self.quiet = 0.0, [0.0], (False,)

    def start_for(self, lo: float) -> float:
        bounds = self.bounds
        k = bisect.bisect_right(bounds, lo, 0, len(bounds) - 1) - 1
        if lo == bounds[-1] and self.quiet[-1]:
            self.at = lo
        # the bounds ascend strictly but on a one-point span, which keeps
        # the point chosen before
        elif k >= 0 and bounds[k] < bounds[k + 1]:
            inner = min(lo, math.nextafter(bounds[k + 1], -math.inf))
            self.at = inner if self.quiet[k] and bounds[k] < inner else bounds[k]
        return self.at

    def record(self, ev: ConvEvaluation) -> None:
        # Python floats, which start_for compares and steps without numpy
        self.bounds, self.quiet = ev.bounds.tolist(), ev.quiet


def _eval_node(trace: PiecewiseConstantSignal, f: Formula, lo: float,
               restarts: dict[tuple[int, ...], _Restart] | None = None, path: tuple[int, ...] = (),
               ) -> tuple[BooleanSignal, tuple[float, ...]]:
    """Signal and crossings of ``f`` over ``[lo, evaluable end]``.

    An atom reads the trace from its last sample at or before ``lo``; ``!``
    and the connectives pass ``lo`` on; a window node asks its child for its
    own span, which starts at ``lo`` (windows look forward), or at its
    restart point when ``restarts`` holds one for its ``path`` (child 0,
    left 0, right 1 from the root), and takes its verdict from ``lo``.
    Each window node's evaluation is recorded in ``restarts`` for the next
    call.
    """
    match f:
        case Const(value):
            return (BooleanSignal.always if value else BooleanSignal.never)(lo, trace.duration), ()
        case Atom():
            return eval_atom(trace, f, lo), ()
        case Not(child):
            sig, crossings = _eval_node(trace, child, lo, restarts, path + (0,))
            return boolean_not(sig), crossings
        case Or(left, right) | And(left, right) | Implies(left, right):
            a, _ = _eval_node(trace, left, lo, restarts, path + (0,))
            b, _ = _eval_node(trace, right, lo, restarts, path + (1,))
            a, b = _align(a, b)
            if isinstance(f, Or):
                return boolean_or(a, b), ()
            if isinstance(f, And):
                return boolean_and(a, b), ()
            return boolean_or(boolean_not(a), b), ()
        case Conv(kernel, threshold, child) | ConvDual(kernel, threshold, child):
            restart = None if restarts is None else (
                restarts.get(path) or restarts.setdefault(path, _Restart()))
            start = lo if restart is None else restart.start_for(lo)
            sig, _ = _eval_node(trace, child, start, restarts, path + (0,))
            dual = isinstance(f, ConvDual)
            if dual:
                # the dual is the complement of the complemented child at 1 - p
                sig, threshold = boolean_not(sig), 1.0 - threshold
            ev = eval_conv_efficient(kernel, threshold, sig, lo)
            if restart is not None:
                restart.record(ev)
            signal = boolean_not(ev.verdict.signal) if dual else ev.verdict.signal
            return signal, ev.verdict.crossings
    raise SclError(f"not a formula: {f!r}")


def monitor(trace: PiecewiseConstantSignal, f: Formula) -> VerdictSignal:
    """Truth signal of ``f`` over ``[0, evaluable_end(f, duration)]``.

    The formula is satisfied by the trace iff the verdict holds at time 0.
    """
    evaluable_end(f, trace.duration)
    return VerdictSignal(*_eval_node(trace, f, 0.0))
