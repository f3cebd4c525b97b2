"""Quantitative semantics: how far the trace can be translated before the
verdict flips.

For atoms the robustness is the signed distance to the threshold; Boolean
connectives take max/min/negation pointwise.  For a convolution node the
robustness at t is the supremum of all levels r such that the kernel-weighted
coverage of ``{inner robustness > r}`` still meets the threshold.  Over a
piecewise-constant inner signal that coverage only drops where r passes one of
the window's segment values, so the supremum is one of them: the
kernel-weighted threshold-quantile of the window.  It is returned exactly,
with no tolerance.  A coverage node takes its times in blocks, one broadcast
mass call per block of windows.  A running sum of each window's masses,
sorted by level, proposes the level and decides every window whose totals
lie clear of the threshold by more than that sum's rounding.  The rest, a
coverage that sits exactly on the threshold among them, are decided by the
coverage sum over the window's segments in time order.  So every value is
the one a per-time evaluation gives, bit for bit, whatever the block and
whatever the order in which the levels were sorted.

Robustness is evaluated as values at given times.  ``_breaks`` says where a
node is sampled on a span: an atom at its trace samples, a convolution node
every window width / 1000 from the span's start, with a last sample at its
end, and a connective at the union of its operands' breakpoints.  ``_rho_at``
evaluates a node exactly at any ascending times: atoms by lookup, connectives
by min/max/negation at those same times, and a convolution node by the
coverage supremum at each time over its child, which it samples at the
child's own breakpoints across the windows those times read.  ``rho(t)`` is
that value at ``[t]``; ``rho_trace`` is it at the formula's breakpoints on
``[0, end]`` of the evaluable horizon.  So every row of a formula with no
convolution node under another equals ``rho`` at its time, bit for bit.  A
convolution node under another holds its child's value between the child's
samples, so there a row can miss a feature of the child narrower than one
child pitch.
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
    horizon,
)
from .kernels import BoundedKernel
from .signals import PiecewiseConstantSignal

_MASS_SNAP = 1e-9  # coverage sums get snapped onto the exact bounds 0 / 1
_RHO_CELLS = 1000  # a coverage node samples its span every window width / _RHO_CELLS
_BLOCK = 8192      # (time, segment) pairs per mass call of a coverage node: bounds its memory


@dataclass(frozen=True)
class RobustnessTrace:
    """Robustness at the formula's breakpoints: ``values[i]`` is rho at
    ``times[i]`` and holds up to the next time; the last time is the
    horizon's end."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise SclError("times and values must have equal length")


def _covers(threshold: float, masses: np.ndarray, seg_vals: np.ndarray, level: float) -> bool:
    """Whether the window's segments at or above ``level`` reach the
    threshold: one masked sum of their masses in time order, snapped onto
    the exact bounds 0 / 1."""
    total = float(np.sum(masses[seg_vals >= level]))
    if abs(total) <= _MASS_SNAP:
        total = 0.0
    elif abs(total - 1.0) <= _MASS_SNAP:
        total = 1.0
    return total >= threshold


def _window_supremum(threshold: float, masses: np.ndarray, seg_vals: np.ndarray) -> float:
    """sup { r | kernel-weighted measure of {inner > r} in one window >= threshold }.

    ``masses[k]`` is the window mass of the window's k-th segment in time
    order and ``seg_vals[k]`` the inner robustness on it.  For r just below a
    level u the set {inner > r} is {inner >= u}, so the supremum is the
    highest finite level u whose coverage(u) reaches the threshold.  A
    cumulative mass over the levels proposes it; ``_covers``, one masked sum
    in time order, decides it.
    """
    finite = np.isfinite(seg_vals)
    top = float(np.sum(masses[seg_vals == np.inf]))       # coverage above all finite levels
    bottom = float(np.sum(masses[seg_vals > -np.inf]))    # coverage below all finite levels
    if abs(top - 1.0) <= _MASS_SNAP:
        top = 1.0
    if abs(bottom - 1.0) <= _MASS_SNAP:
        bottom = 1.0
    if top >= threshold:
        return math.inf
    if bottom < threshold:
        return -math.inf

    levels, level_of = np.unique(seg_vals[finite], return_inverse=True)
    levels = levels[::-1]
    level_mass = np.bincount(level_of, weights=masses[finite])[::-1]
    last = len(levels) - 1
    k = min(int(np.searchsorted(top + np.cumsum(level_mass), threshold)), last)
    while k < last and not _covers(threshold, masses, seg_vals, levels[k]):
        k += 1
    while k > 0 and _covers(threshold, masses, seg_vals, levels[k - 1]):
        k -= 1
    return float(levels[k])


def _decides(totals: np.ndarray, threshold: float, at_zero: bool) -> np.ndarray:
    """Elementwise ``snapped total >= threshold``, nondecreasing in the total:
    totals within ``_MASS_SNAP`` of 1 count as 1 and, with ``at_zero``,
    those within it of 0 as 0, as ``_window_supremum`` snaps them."""
    if 2 * _MASS_SNAP < threshold < 1.0 - 2 * _MASS_SNAP:
        return totals >= threshold      # snapping moves no total across this threshold
    snapped = np.where(np.abs(totals - 1.0) <= _MASS_SNAP, 1.0, totals)
    if at_zero:
        snapped = np.where(np.abs(totals) <= _MASS_SNAP, 0.0, snapped)
    return snapped >= threshold


def _block_suprema(kernel: BoundedKernel, threshold: float, cuts: np.ndarray,
                   values: np.ndarray, ts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``_window_supremum`` of each window ``[lo, hi]`` anchored at ``ts``,
    whose segments are ``values[first:first + count]``: one block of
    ``_coverage_suprema``."""
    lower, upper = kernel.lower, kernel.upper
    rows = np.arange(len(ts))
    # row r: its window's segments in time order, then padding
    seg = first[:, None] + np.arange(int(count.max()))
    pad = seg >= (first + count)[:, None]
    a = cuts.take(seg, mode="clip") - ts[:, None]
    a[:, 0] = lo - ts
    b = np.empty_like(a)
    b[:, :-1] = a[:, 1:]
    b[rows, count - 1] = hi - ts
    a, b = np.clip(a, lower, upper).ravel(), np.clip(b, lower, upper).ravel()
    masses = np.empty(a.shape)
    for s in range(0, len(a), _BLOCK):      # several calls only for one window wider than a block
        masses[s:s + _BLOCK] = kernel.mass_clipped(a[s:s + _BLOCK], b[s:s + _BLOCK])
    masses = np.where(pad, 0.0, masses.reshape(pad.shape))
    seg_vals = np.where(pad, -np.inf, values.take(seg, mode="clip"))

    # the same masses by level, highest first, and their running sum:
    # total[:, k] is the mass of a row's k highest entries
    width = pad.shape[1]
    order = np.argsort(-seg_vals, axis=1) + (rows * width)[:, None]
    vals = seg_vals.ravel()[order]
    mass = masses.ravel()[order]
    total = np.zeros((len(ts), width + 1))
    run = np.cumsum(mass, axis=1, out=total[:, 1:])
    n_up = np.sum(vals > -np.inf, axis=1)
    top = total[rows, np.sum(vals == np.inf, axis=1)]
    bottom = total[rows, n_up]

    # a running total and the time-ordered sum of the same masses differ by
    # less than slack, so both decide alike when the total minus and plus
    # slack decide alike
    slack = 4.0 * np.finfo(float).eps * count * total[:, -1]

    def close(totals):
        return (_decides(totals - slack, threshold, False)
                != _decides(totals + slack, threshold, False))

    # the first finite entry whose running total surely / possibly covers:
    # both totals are nondecreasing along a row, so the covering entries are
    # its last ones, and in a row that reaches its finite levels the +inf
    # entries ahead of them cover neither way
    def first_covering(totals):
        return np.minimum(width - np.sum(_decides(totals, threshold, True), axis=1), n_up)

    sure = first_covering(run - slack[:, None])
    maybe = first_covering(run + slack[:, None])
    # the first level that possibly covers, else the lowest; with maybe < sure
    # it may or may not cover, and if the entries between belong to it alone
    # every level above surely does not and every level below surely does
    level = vals[rows, np.maximum(np.minimum(maybe, n_up - 1), 0)]
    tie = maybe < sure
    alone = vals[rows, np.maximum(sure - 1, 0)] == level
    below = np.sum(vals >= level[:, None], axis=1)
    next_level = np.where(below < n_up, vals[rows, np.minimum(below, width - 1)], level)

    is_top = _decides(top, threshold, False)
    is_bottom = _decides(bottom, threshold, False)
    out = np.where(is_top, np.inf, np.where(is_bottom, level, -np.inf))
    window = is_bottom & ~is_top
    retry = (close(top) | (~is_top & close(bottom)) | (window & tie & ~alone)
             | np.any(mass < 0.0, axis=1))
    for r in np.flatnonzero(retry).tolist():
        out[r] = _window_supremum(threshold, masses[r, :count[r]], seg_vals[r, :count[r]])
    for r in np.flatnonzero(window & tie & alone & ~retry).tolist():
        if not _covers(threshold, masses[r, :count[r]], seg_vals[r, :count[r]], level[r]):
            out[r] = next_level[r]
    return out


def _coverage_suprema(kernel: BoundedKernel, threshold: float, cuts: np.ndarray,
                      values: np.ndarray, end: float, ts: np.ndarray) -> np.ndarray:
    """``_window_supremum`` of the window at each of the ascending times
    ``ts``, bit for bit, evaluated a block of windows at a time.

    The inner robustness is ``values[k]`` from ``cuts[k]`` up to the next
    cut; each window starts at or after ``cuts[0]`` and is clipped at
    ``end``.  A block holds the times whose windows, padded to the block's
    widest, make at most ``_BLOCK`` (time, segment) pairs (a wider window
    goes alone), and gets its masses from one broadcast ``mass_clipped``
    call.  A mass is elementwise the same expression as in a call for its
    window alone, so it is the same double.

    Each window's masses are then sorted by level and summed in that order.
    The running sum gives every total ``_window_supremum`` decides on: top,
    bottom and the coverage of each level.  It differs from the time-ordered
    masked sum of the same masses by at most the rounding of n additions, n
    the window's segment count, and a total farther than that from where its
    snapped comparison with the threshold flips is decided alike by both.

    * A window whose totals are all that clear takes the level they pick.
    * A window with one level that close, typically a coverage exactly on
      the threshold, decides that level by its masked sum in time order
      (``_covers``) and takes it or the next lower level.
    * A window with top or bottom that close, with two or more such levels,
      or with a negative mass runs ``_window_supremum`` on its own masses.

    So a value depends on its time alone, not on the block that took it in.
    """
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
            return np.unique([lo, hi])
        case Atom():
            inside = trace.times[(trace.times > lo) & (trace.times < hi)]
            return np.concatenate([[lo], inside, [hi]]) if hi > lo else np.array([lo])
        case Not(child):
            return _breaks(trace, child, lo, hi)
        case Or(left, right) | And(left, right) | Implies(left, right):
            return np.union1d(_breaks(trace, left, lo, hi), _breaks(trace, right, lo, hi))
        case Conv(kernel) | ConvDual(kernel):
            pitch = kernel.width / _RHO_CELLS
            n = int(math.floor((hi - lo) / pitch)) if hi > lo else 0
            ts = lo + pitch * np.arange(n + 1)
            return np.append(ts, hi) if ts[-1] < hi - 1e-12 else ts
    raise SclError(f"not a formula: {f!r}")


def _rho_at(trace: PiecewiseConstantSignal, f: Formula, ts: np.ndarray) -> np.ndarray:
    """Robustness of ``f`` at each of the ascending times ``ts``."""
    match f:
        case Const(value):
            return np.full(len(ts), math.inf if value else -math.inf)
        case Atom():
            idx = np.searchsorted(trace.times, ts, side="right") - 1
            vals = trace.variable_values(f.variable)[np.maximum(idx, 0)]
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
            end = ts[-1] + kernel.upper
            cuts = _breaks(trace, child, ts[0] + kernel.lower, end)
            values = _rho_at(trace, child, cuts)
            end = min(end, trace.duration)  # the trace ends here; windows clip to it
            return _coverage_suprema(kernel, threshold, cuts, values, end, ts)
        case ConvDual(kernel, threshold, child):
            return _rho_at(trace, Not(Conv(kernel, 1.0 - threshold, Not(child))), ts)
    raise SclError(f"not a formula: {f!r}")


def rho(trace: PiecewiseConstantSignal, f: Formula, t: float = 0.0) -> float:
    """Robustness of ``f`` at time ``t``."""
    needed = horizon(f)
    if t < 0 or t > trace.duration - needed + 1e-12:
        raise HorizonError(
            f"time {t} outside evaluable horizon [0, {trace.duration - needed:.6g}] "
            f"(formula horizon {needed:.6g})"
        )
    return float(_rho_at(trace, f, np.array([float(t)]))[0])


def rho_trace(trace: PiecewiseConstantSignal, f: Formula) -> RobustnessTrace:
    """Robustness over the evaluable horizon, at every breakpoint of ``f``."""
    needed = horizon(f)
    if needed > trace.duration + 1e-12:
        raise HorizonError(
            f"formula horizon {needed:.6g} exceeds trace duration {trace.duration:.6g}"
        )
    times = _breaks(trace, f, 0.0, max(trace.duration - needed, 0.0))
    return RobustnessTrace(times, _rho_at(trace, f, times))
