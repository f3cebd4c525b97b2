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

One recursion evaluates every node as a step function over only the span it
reads: ``rho(t)`` asks the formula for ``[t, t]``, and a convolution node asks
its child for its window around that span, ``[lo + lower, hi + upper]``.  The
robustness of atoms and their Boolean combinations is exact and piecewise
constant; a convolution node is sampled every window width / 1000 from the
start of its span, with a last sample at the span's end.  ``rho_trace`` asks
for ``[0, end]`` of the evaluable horizon and returns that step function's own
breakpoints and values, with no second sampling pass.
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
    """Robustness t -> rho(t) as a step function: ``values[i]`` holds from
    ``times[i]`` up to the next time; the last time is the horizon's end."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise SclError("times and values must have equal length")


class _StepFunction:
    """Piecewise-constant real function on [start, end], right-continuous."""

    def __init__(self, start: float, end: float, times: np.ndarray, values: np.ndarray):
        self.start = float(start)
        self.end = float(end)
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if len(self.times) == 0 or self.times[0] != self.start:
            raise SclError("step function must start at its domain start")

    def negated(self) -> "_StepFunction":
        return _StepFunction(self.start, self.end, self.times, -self.values)

    def combined(self, other: "_StepFunction", op) -> "_StepFunction":
        end = min(self.end, other.end)
        times = np.unique(np.concatenate([self.times, other.times]))
        times = times[times <= end]
        mine = self.values[np.searchsorted(self.times, times, side="right") - 1]
        theirs = other.values[np.searchsorted(other.times, times, side="right") - 1]
        return _StepFunction(self.start, end, times, op(mine, theirs))

    def value_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[max(idx, 0)])

    def window_segments(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment bounds and values covering [lo, hi] exactly."""
        i = int(np.searchsorted(self.times, lo, side="right")) - 1
        j = int(np.searchsorted(self.times, hi, side="left"))
        cuts = np.concatenate([[lo], self.times[i + 1:j], [hi]])
        vals = self.values[i:j] if j > i else self.values[i:i + 1]
        return cuts[:-1], cuts[1:], vals


def _coverage_supremum(kernel: BoundedKernel, threshold: float,
                       inner: _StepFunction, t: float) -> float:
    """sup { r | kernel-weighted measure of {inner > r} in the window >= threshold }.

    For r just below a level u the set {inner > r} is {inner >= u}, so the
    supremum is the highest finite level u whose coverage(u) reaches the
    threshold.  A cumulative mass over the levels proposes it; coverage(u),
    one masked sum in time order, decides it.
    """
    lo, hi = t + kernel.lower, t + kernel.upper
    eps = 1e-9 * max(1.0, abs(inner.start), abs(inner.end))
    if lo < inner.start - eps or hi > inner.end + eps:
        raise HorizonError(
            f"window [{lo}, {hi}] outside robustness signal domain "
            f"[{inner.start}, {inner.end}]"
        )
    seg_lo, seg_hi, seg_vals = inner.window_segments(max(lo, inner.start),
                                                     min(hi, inner.end))
    masses = np.asarray(kernel.mass_clipped(
        np.clip(seg_lo - t, kernel.lower, kernel.upper),
        np.clip(seg_hi - t, kernel.lower, kernel.upper),
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


def _rho_signal(trace: PiecewiseConstantSignal, f: Formula,
                lo: float, hi: float) -> _StepFunction:
    """Robustness of ``f`` as a step function on ``[lo, hi]`` only."""
    match f:
        case Const(value):
            v = math.inf if value else -math.inf
            return _StepFunction(lo, hi, np.array([lo]), np.array([v]))
        case Atom():
            hi = min(hi, trace.duration)  # the trace ends here; windows clip to it
            i = int(np.searchsorted(trace.times, lo, side="right")) - 1
            j = int(np.searchsorted(trace.times, hi, side="right"))
            vals = trace.variable_values(f.variable)[i:j]
            signed = vals - f.threshold if f.op in (">=", ">") else f.threshold - vals
            return _StepFunction(lo, hi, np.concatenate([[lo], trace.times[i + 1:j]]), signed)
        case Not(child):
            return _rho_signal(trace, child, lo, hi).negated()
        case Or(left, right):
            return _rho_signal(trace, left, lo, hi).combined(
                _rho_signal(trace, right, lo, hi), np.maximum)
        case And(left, right):
            return _rho_signal(trace, left, lo, hi).combined(
                _rho_signal(trace, right, lo, hi), np.minimum)
        case Implies(left, right):
            return _rho_signal(trace, left, lo, hi).negated().combined(
                _rho_signal(trace, right, lo, hi), np.maximum)
        case Conv(kernel, threshold, child):
            inner = _rho_signal(trace, child, lo + kernel.lower, hi + kernel.upper)
            pitch = kernel.width / _RHO_CELLS
            n = int(math.floor((hi - lo) / pitch)) if hi > lo else 0
            ts = lo + pitch * np.arange(n + 1)
            if ts[-1] < hi - 1e-12:
                ts = np.append(ts, hi)
            vals = np.array([
                _coverage_supremum(kernel, threshold, inner, t) for t in ts
            ])
            return _StepFunction(lo, hi, ts, vals)
        case ConvDual(kernel, threshold, child):
            return _rho_signal(
                trace, Not(Conv(kernel, 1.0 - threshold, Not(child))), lo, hi)
    raise SclError(f"not a formula: {f!r}")


def rho(trace: PiecewiseConstantSignal, f: Formula, t: float = 0.0) -> float:
    """Robustness of ``f`` at time ``t``."""
    needed = horizon(f)
    if t < 0 or t > trace.duration - needed + 1e-12:
        raise HorizonError(
            f"time {t} outside evaluable horizon [0, {trace.duration - needed:.6g}] "
            f"(formula horizon {needed:.6g})"
        )
    return _rho_signal(trace, f, t, t).value_at(t)


def rho_trace(trace: PiecewiseConstantSignal, f: Formula) -> RobustnessTrace:
    """Robustness over the evaluable horizon: the formula's own step function."""
    needed = horizon(f)
    if needed > trace.duration + 1e-12:
        raise HorizonError(
            f"formula horizon {needed:.6g} exceeds trace duration {trace.duration:.6g}"
        )
    end = max(trace.duration - needed, 0.0)
    sf = _rho_signal(trace, f, 0.0, end)
    if sf.times[-1] < end - 1e-12:
        return RobustnessTrace(np.append(sf.times, end), np.append(sf.values, sf.values[-1]))
    return RobustnessTrace(sf.times, sf.values)
