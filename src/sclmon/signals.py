"""Piecewise-constant signals and the interval algebra the monitors build on.

Two signal kinds live here:

* :class:`PiecewiseConstantSignal` -- a timestamped step function over one or
  more named real variables (the input trace).
* :class:`BooleanSignal` -- a truth signal over a bounded domain, held as two
  read-only float arrays: the sorted starts and ends of its true-intervals.

Conventions: traces are right-continuous (the value at a sample time is the
new value, holding until the next sample), true-intervals are closed,
touching and overlapping intervals are merged, and zero-length intervals
are dropped during normalization, so consecutive intervals are separated by
positive gaps.  The only exception is a degenerate domain ``[d, d]`` (it
occurs when a verdict collapses to a single time point), which is
represented by a single point interval when true at that point.
Normalization only selects, sorts and compares bounds, never computes new
ones, so every bound is one of the floats it was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import SclError, TraceError


@dataclass(frozen=True, eq=False)
class BooleanSignal:
    """Truth signal over ``[start, end]``: true exactly on the closed
    intervals ``[starts[i], ends[i]]``, which are sorted and disjoint."""

    start: float
    end: float
    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self) -> None:
        self.starts.flags.writeable = False
        self.ends.flags.writeable = False

    @staticmethod
    def from_intervals(
        start: float, end: float,
        intervals: Iterable[tuple[float, float]] | np.ndarray,
    ) -> "BooleanSignal":
        """Build a normalized signal from ``(start, end)`` pairs, given as an
        iterable or an ``(n, 2)`` array: clip to the domain, drop points,
        sort, merge touching and overlapping intervals."""
        start, end = float(start), float(end)
        if not (math.isfinite(start) and math.isfinite(end)):
            raise SclError(f"domain bounds must be finite, got [{start}, {end}]")
        if end < start:
            raise SclError(f"empty domain: [{start}, {end}]")
        try:
            pairs = np.asarray(intervals if isinstance(intervals, np.ndarray)
                               else list(intervals), dtype=float)
        except (TypeError, ValueError) as exc:
            raise SclError(f"intervals must be (start, end) pairs of numbers: {exc}") from None
        pairs = pairs.reshape(0, 2) if pairs.shape == (0,) else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise SclError(f"intervals must be (start, end) pairs, got shape {pairs.shape}")
        if not np.isfinite(pairs).all():
            raise SclError("interval bounds must be finite")
        s, e = pairs[:, 0], pairs[:, 1]
        if start == end:
            # Degenerate domain: keep a point interval when true at the point.
            point = np.full(int(np.any((s <= start) & (start <= e))), start)
            return BooleanSignal(start, end, point, point)
        # selections, as the builtins max(s, start) and min(e, end) make them
        s = np.where(start > s, start, s)
        e = np.where(end < e, end, e)
        keep = e > s
        order = np.argsort(s[keep], kind="stable")
        s, e = s[keep][order], e[keep][order]
        # a run of overlapping or touching intervals opens wherever an
        # interval starts beyond every end before it
        reach = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
        opens = np.flatnonzero(s > reach)
        return BooleanSignal(start, end, s[opens], np.maximum.reduceat(e, opens))

    @staticmethod
    def always(start: float, end: float) -> "BooleanSignal":
        return BooleanSignal.from_intervals(start, end, [(start, end)])

    @staticmethod
    def never(start: float, end: float) -> "BooleanSignal":
        return BooleanSignal.from_intervals(start, end, [])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanSignal):
            return NotImplemented
        return (self.start == other.start and self.end == other.end
                and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.ends, other.ends))

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        """The true-intervals as ``(start, end)`` pairs of Python floats."""
        return tuple(zip(self.starts.tolist(), self.ends.tolist()))

    @property
    def domain(self) -> tuple[float, float]:
        return (self.start, self.end)

    def value_at(self, t: float) -> bool:
        """Membership of t in the (closed) true-intervals."""
        if t < self.start or t > self.end:
            raise SclError(f"time {t} outside signal domain [{self.start}, {self.end}]")
        i = int(np.searchsorted(self.starts, t, side="right")) - 1
        return bool(i >= 0 and self.ends[i] >= t)

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.starts, ts, side="right") - 1
        ok = idx >= 0
        out = np.zeros(len(ts), dtype=bool)
        out[ok] = self.ends[idx[ok]] >= ts[ok]
        return out


def boolean_not(sig: BooleanSignal) -> BooleanSignal:
    """Complement within the domain."""
    if sig.start == sig.end:
        return BooleanSignal.from_intervals(
            sig.start, sig.end, [] if len(sig.starts) else [(sig.start, sig.end)])
    gaps = np.column_stack((np.append(sig.start, sig.ends), np.append(sig.starts, sig.end)))
    return BooleanSignal.from_intervals(sig.start, sig.end, gaps)


def _require_same_domain(a: BooleanSignal, b: BooleanSignal) -> None:
    if a.domain != b.domain:
        raise SclError(f"domain mismatch: {a.domain} vs {b.domain}")


def boolean_or(a: BooleanSignal, b: BooleanSignal) -> BooleanSignal:
    """Pointwise disjunction; requires equal domains."""
    _require_same_domain(a, b)
    return BooleanSignal.from_intervals(a.start, a.end, np.column_stack(
        (np.concatenate((a.starts, b.starts)), np.concatenate((a.ends, b.ends)))))


def boolean_and(a: BooleanSignal, b: BooleanSignal) -> BooleanSignal:
    """Pointwise conjunction, by de Morgan; requires equal domains."""
    return boolean_not(boolean_or(boolean_not(a), boolean_not(b)))


def restrict_domain(sig: BooleanSignal, interval: tuple[float, float]) -> BooleanSignal:
    """Intersect with ``interval`` and shrink the domain to it."""
    lo, hi = interval
    eps = 1e-9 * max(1.0, abs(sig.start), abs(sig.end))
    if lo < sig.start - eps or hi > sig.end + eps or hi < lo:
        raise SclError(
            f"restriction [{lo}, {hi}] outside signal domain [{sig.start}, {sig.end}]"
        )
    lo, hi = max(lo, sig.start), min(hi, sig.end)
    return BooleanSignal.from_intervals(lo, hi, np.column_stack((sig.starts, sig.ends)))


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Right-continuous step trace over named variables on ``[0, duration]``."""

    variables: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray  # shape (len(times), len(variables))
    duration: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variables", tuple(self.variables))
        if times.ndim != 1 or len(times) == 0:
            raise TraceError("trace needs at least one sample")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise TraceError("trace contains non-finite entries")
        if times[0] != 0.0:
            raise TraceError(f"first sample must be at time 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise TraceError("sample times must be strictly increasing")
        if values.shape != (len(times), len(self.variables)):
            raise TraceError(
                f"value matrix shape {values.shape} does not match "
                f"{len(times)} samples x {len(self.variables)} variables"
            )
        if not math.isfinite(self.duration) or self.duration < times[-1]:
            raise TraceError(
                f"duration {self.duration} shorter than last sample time {times[-1]}"
            )

    def column(self, variable: str) -> int:
        try:
            return self.variables.index(variable)
        except ValueError:
            raise SclError(
                f"unknown variable {variable!r}; trace has {list(self.variables)}"
            ) from None

    def value_at(self, t: float, variable: str) -> float:
        if t < 0 or t > self.duration:
            raise SclError(f"time {t} outside trace domain [0, {self.duration}]")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[idx, self.column(variable)])

    def variable_values(self, variable: str) -> np.ndarray:
        return self.values[:, self.column(variable)]

    def segment_bounds(self) -> np.ndarray:
        """Breakpoints of the step function: sample times plus the duration."""
        if self.times[-1] < self.duration:
            return np.append(self.times, self.duration)
        return self.times.copy()
