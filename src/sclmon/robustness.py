"""Quantitative semantics: how far the trace can be translated before the
verdict flips.

For atoms the robustness is the signed distance to the threshold; Boolean
connectives take max/min/negation pointwise.  For a convolution node the
robustness at t is the supremum of all levels r such that the kernel-weighted
coverage of ``{inner robustness > r}`` still meets the threshold.  Over a
piecewise-constant inner signal that coverage only drops where r passes one of
the window's segment values, so the supremum is one of them: the
kernel-weighted threshold-quantile of the window, returned exactly.  At a
threshold of 0 it is +inf; at 1 it is the lowest value held for a positive
time in the window, a segment from a to b being held at t when
``a - upper < t < b - lower``, the monitor's own test for an edge strictly
inside.  Neither takes a mass.  Any other threshold is met by one rule: the
highest level, searched from the top, whose coverage summed over the
window's segments in time order reaches it.  A coverage node takes the
masses of a block of windows in one call, and settles most levels by a
running sum sorted by level, yet every value is the one a per-time
evaluation gives, bit for bit (:func:`_coverage_suprema`).

Robustness is evaluated as values at given times.  ``_breaks`` says where a
node is sampled on a span: an atom at its trace samples, a convolution node
every window width / 1000 from the span's start, with a last sample exactly
at its end, and a connective at the union of its operands' breakpoints.
``_rho_at`` evaluates a node exactly at any ascending times: atoms by lookup
(a last sample at a positive duration holds for no time, as in the verdict),
connectives by min/max/negation at those same times, and a convolution node
by the coverage supremum at each time over its child, which it samples at
the child's own breakpoints across the windows those times read.
``rho(t)`` is that value at ``[t]``; ``rho_trace`` is it at the formula's
breakpoints on ``[0, evaluable_end(f, duration)]``, the verdict's own
domain.  So every row of a formula with no convolution node under another
equals ``rho`` at its time, bit for bit.  A convolution node under another
holds its child's value between the child's samples, so there a row can
miss a feature of the child narrower than one child pitch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .kernels import BoundedKernel
from .signals import PiecewiseConstantSignal, sorted_unique

_RHO_CELLS = 1000  # a coverage node samples its span every window width / _RHO_CELLS
_BLOCK = 8192      # (time, segment) pairs per mass call of a coverage node: bounds its memory


@dataclass(frozen=True)
class RobustnessTrace:
    """Robustness at the formula's breakpoints: ``values[i]`` is rho at
    ``times[i]`` and holds up to the next time; the last time is where the
    verdict ends."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise SclError("times and values must have equal length")


def _covers(threshold: float, masses: np.ndarray, seg_vals: np.ndarray, level: float) -> bool:
    """Whether the window's segments at or above ``level`` reach the
    threshold: one masked sum of their masses in time order."""
    return bool(np.sum(masses[seg_vals >= level]) >= threshold)


def _block_suprema(kernel: BoundedKernel, threshold: float, cuts: np.ndarray,
                   values: np.ndarray, ts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The highest level that ``_covers`` each window ``[lo, hi]`` anchored
    at ``ts``, else -inf, where the window's segments are
    ``values[first:first + count]``: one block of ``_coverage_suprema``."""
    rows = np.arange(len(ts))
    width = int(count.max())
    # row r: its window's cuts from lo to hi as offsets from ts[r], then padding
    at = first[:, None] + np.arange(width + 1)
    offsets = cuts.take(at, mode="clip") - ts[:, None]
    offsets[:, 0] = lo - ts
    offsets[rows, count] = hi - ts
    np.clip(offsets, kernel.lower, kernel.upper, out=offsets)
    seg = at[:, :-1]
    pad = seg >= (first + count)[:, None]
    masses = np.empty(pad.shape)
    for s in range(0, width, _BLOCK):       # several calls only for one window wider than a block
        masses[:, s:s + _BLOCK] = kernel.masses(offsets[:, s:s + _BLOCK + 1])
    masses = np.where(pad, 0.0, masses)
    seg_vals = np.where(pad, -np.inf, values.take(seg, mode="clip"))

    # the same entries by level, highest first, behind an empty +inf entry;
    # a level's coverage is the running sum at its last entry, and differs
    # from the time-ordered sum of the same masses by less than slack
    order = np.argsort(-seg_vals, axis=1) + (rows * width)[:, None]
    vals = np.empty((len(ts), width + 1))
    vals[:, 0] = np.inf
    vals[:, 1:] = seg_vals.ravel()[order]
    run = np.zeros(vals.shape)
    np.cumsum(masses.ravel()[order], axis=1, out=run[:, 1:])
    slack = (4.0 * np.finfo(float).eps * count * np.sum(np.abs(masses), axis=1))[:, None]
    last = np.append(vals[:, :-1] != vals[:, 1:], np.ones((len(ts), 1), bool), axis=1)
    sure = last & (run - slack >= threshold)
    close = last & (run + slack >= threshold) & ~sure

    # the first level that surely covers, unless a close one above it does
    first_sure = np.where(sure.any(axis=1), np.argmax(sure, axis=1), width + 1)
    out = np.where(first_sure <= width, vals[rows, np.minimum(first_sure, width)], -np.inf)
    close &= np.arange(width + 1) < first_sure[:, None]
    for r in np.flatnonzero(close.any(axis=1)).tolist():
        for level in vals[r, close[r]].tolist():
            if _covers(threshold, masses[r, :count[r]], seg_vals[r, :count[r]], level):
                out[r] = level
                break
    # whichever zero the sort put last, a window holding a -0.0 takes it at level 0
    out[(out == 0.0) & np.any((seg_vals == 0.0) & np.signbit(seg_vals), axis=1)] = -0.0
    return out


def _coverage_suprema(kernel: BoundedKernel, threshold: float, cuts: np.ndarray,
                      values: np.ndarray, end: float, ts: np.ndarray) -> np.ndarray:
    """sup { r | kernel-weighted measure of {inner > r} in the window >= threshold }
    at each of the ascending times ``ts``, evaluated a block of windows at a time.

    The inner robustness is ``values[k]`` from ``cuts[k]`` up to the next
    cut, the last up to ``end``; each window starts at or after ``cuts[0]``
    and is clipped at ``end``.  For r just below a level u the set
    {inner > r} is {inner >= u}, so the supremum is the highest level, +inf
    included, whose coverage reaches the threshold (``_covers``: one masked
    sum in time order), else -inf.  A threshold of 0 or 1 takes the module
    docstring's rule instead, with no mass.

    A block holds the times whose windows, padded to the block's widest,
    make at most ``_BLOCK`` (time, segment) pairs, and gets its masses from
    one ``masses`` call on a matrix of cuts, a row per window from its start
    to its end, so erf or expm1 is taken once per cut.  A wider window goes
    alone, its row cut into calls of ``_BLOCK`` segments that share their
    boundary cut.  A mass is elementwise the same expression as in a call
    for its window alone, so it is the same double.  Each window's masses
    are then sorted by level, highest first, and summed in that order.  That
    running sum differs from the time-ordered one by at most the rounding of
    n additions, n the window's segment count, so a level whose running sum
    decides alike with that slack added and taken away needs no other sum.
    Only the levels that are that close, above the first that surely
    covers, are decided by ``_covers``, from the top down.  So a value
    depends on its time alone, not on the block that took it in.
    """
    if threshold == 0.0:
        return np.full(len(ts), math.inf)
    if threshold == 1.0:
        # the lowest of the m segments starting before the end that are held
        # at t, one from a to b when a - upper < t < b - lower (the monitor's test)
        m = int(cuts.searchsorted(end, side="left"))
        first = (np.append(cuts[1:m], end) - kernel.lower).searchsorted(ts, side="right")
        stop = (cuts[:m] - kernel.upper).searchsorted(ts, side="left")
        low = np.minimum.reduceat(np.append(values[:m], math.inf), np.c_[first, stop].ravel())
        low = np.where(first < stop, low[::2], math.inf)
        negative = np.cumsum(np.append(0, (values[:m] == 0.0) & np.signbit(values[:m])))
        return np.where(low == 0.0, np.where(negative[stop] > negative[first], -0.0, 0.0), low)
    lo = ts + kernel.lower
    hi = np.minimum(ts + kernel.upper, end)
    first = np.searchsorted(cuts, lo, side="right") - 1
    count = np.maximum(np.searchsorted(cuts, hi, side="left") - first, 1)
    out = np.empty(len(ts))
    i = 0
    while i < len(ts):
        widest = np.maximum.accumulate(count[i:i + _BLOCK])
        j = i + max(1, int(np.searchsorted(widest * np.arange(1, len(widest) + 1),
                                           _BLOCK, side="right")))
        out[i:j] = _block_suprema(kernel, threshold, cuts, values, ts[i:j], lo[i:j],
                                  hi[i:j], first[i:j], count[i:j])
        i = j
    return out


def _breaks(trace: PiecewiseConstantSignal, f: Formula, lo: float, hi: float) -> np.ndarray:
    """Ascending times from ``lo`` to ``hi``, both included, at which ``f`` is sampled."""
    match f:
        case Const():
            inside = np.empty(0)
        case Atom():
            inside = trace.times[(trace.times > lo) & (trace.times < hi)]
        case Not(child):
            return _breaks(trace, child, lo, hi)
        case Or(left, right) | And(left, right) | Implies(left, right):
            return sorted_unique(np.concatenate((_breaks(trace, left, lo, hi),
                                                 _breaks(trace, right, lo, hi))))
        case Conv(kernel) | ConvDual(kernel):
            pitch = kernel.width / _RHO_CELLS
            grid = lo + pitch * np.arange(1, int((hi - lo) / pitch) + 1)
            # the last sample is hi itself, not a grid point that rounding put beside it
            inside = grid[grid < hi - 1e-12]
        case _:
            raise SclError(f"not a formula: {f!r}")
    return np.concatenate([[lo], inside, [hi]]) if hi > lo else np.array([lo])


def _rho_at(trace: PiecewiseConstantSignal, f: Formula, ts: np.ndarray) -> np.ndarray:
    """Robustness of ``f`` at each of the ascending times ``ts``."""
    match f:
        case Const(value):
            return np.full(len(ts), math.inf if value else -math.inf)
        case Atom():
            vals = trace.variable_values(f.variable)[trace.segment_index(ts)]
            return vals - f.threshold if f.op in (">=", ">") else f.threshold - vals
        case Not(child):
            return -_rho_at(trace, child, ts)
        case Or(left, right):
            return np.maximum(_rho_at(trace, left, ts), _rho_at(trace, right, ts))
        case And(left, right):
            return np.minimum(_rho_at(trace, left, ts), _rho_at(trace, right, ts))
        case Implies(left, right):
            return np.maximum(-_rho_at(trace, left, ts), _rho_at(trace, right, ts))
        case Conv(kernel, threshold, child):
            cuts = _breaks(trace, child, ts[0] + kernel.lower, ts[-1] + kernel.upper)
            values = _rho_at(trace, child, cuts)
            # the trace ends at its duration; windows clip to it
            return _coverage_suprema(kernel, threshold, cuts, values, trace.duration, ts)
        case ConvDual(kernel, threshold, child):
            return _rho_at(trace, Not(Conv(kernel, 1.0 - threshold, Not(child))), ts)
    raise SclError(f"not a formula: {f!r}")


def rho(trace: PiecewiseConstantSignal, f: Formula, t: float = 0.0) -> float:
    """Robustness of ``f`` at time ``t``."""
    end = evaluable_end(f, trace.duration)
    # like a duration short of the horizon, a time past the end by rounding is let in
    if not 0 <= t <= end + 1e-12:
        raise HorizonError(f"time {t} outside evaluable horizon [0, {end:.6g}]")
    return float(_rho_at(trace, f, np.array([float(t)]))[0])


def rho_trace(trace: PiecewiseConstantSignal, f: Formula) -> RobustnessTrace:
    """Robustness over the evaluable horizon, at every breakpoint of ``f``."""
    times = _breaks(trace, f, 0.0, evaluable_end(f, trace.duration))
    return RobustnessTrace(times, _rho_at(trace, f, times))
