"""Quantitative semantics: how far the trace can be translated before the
verdict flips.

For atoms the robustness is the signed distance to the threshold; Boolean
connectives take max/min/negation pointwise.  For a convolution node the
robustness at t is the supremum of all levels r such that the kernel-weighted
coverage of ``{inner robustness > r}`` still meets the threshold.  Over a
piecewise-constant inner signal that coverage only drops where r passes one of
the window's segment values, so the supremum is one of them: the
kernel-weighted threshold-quantile of the window.  It is returned exactly,
with no tolerance.  A cumulative mass only proposes the level; the coverage
sum over the window's segments in time order decides it, so the answer at a
coverage that sits exactly on the threshold does not depend on the order in
which the levels were sorted.

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


def _coverage_supremum(kernel: BoundedKernel, threshold: float, cuts: np.ndarray,
                       values: np.ndarray, end: float, t: float) -> float:
    """sup { r | kernel-weighted measure of {inner > r} in the window >= threshold }.

    The inner robustness is ``values[k]`` from ``cuts[k]`` up to the next cut;
    the window at ``t`` starts at or after ``cuts[0]`` and is clipped at ``end``.
    For r just below a level u the set {inner > r} is {inner >= u}, so the
    supremum is the highest finite level u whose coverage(u) reaches the
    threshold.  A cumulative mass over the levels proposes it; coverage(u),
    one masked sum in time order, decides it.
    """
    lo, hi = t + kernel.lower, min(t + kernel.upper, end)
    i = int(np.searchsorted(cuts, lo, side="right")) - 1
    j = int(np.searchsorted(cuts, hi, side="left"))
    seg = np.concatenate([[lo], cuts[i + 1:j], [hi]])
    seg_vals = values[i:j] if j > i else values[i:i + 1]
    masses = np.asarray(kernel.mass_clipped(
        np.clip(seg[:-1] - t, kernel.lower, kernel.upper),
        np.clip(seg[1:] - t, kernel.lower, kernel.upper),
    ), dtype=float)

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

    def covers(k: int) -> bool:
        total = float(np.sum(masses[seg_vals >= levels[k]]))
        if abs(total) <= _MASS_SNAP:
            total = 0.0
        elif abs(total - 1.0) <= _MASS_SNAP:
            total = 1.0
        return total >= threshold

    last = len(levels) - 1
    k = min(int(np.searchsorted(top + np.cumsum(level_mass), threshold)), last)
    while k < last and not covers(k):
        k += 1
    while k > 0 and covers(k - 1):
        k -= 1
    return float(levels[k])


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
            return np.array([
                _coverage_supremum(kernel, threshold, cuts, values, end, t) for t in ts
            ])
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
