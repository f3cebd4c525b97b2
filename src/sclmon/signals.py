"""Piecewise-constant signals and the interval algebra the monitors build on.

Two signal kinds live here:

* :class:`PiecewiseConstantSignal` -- a timestamped step function over one or
  more named real variables (the input trace).
* :class:`BooleanSignal` -- a truth signal represented as a sorted list of
  disjoint true-intervals over a bounded domain.

Conventions: traces are right-continuous (the value at a sample time is the
new value, holding until the next sample), true-intervals are closed, and
zero-length intervals are dropped during normalization.  The only exception
is a degenerate domain ``[d, d]`` (it occurs when a verdict collapses to a
single time point), which is represented by a single point interval when
true at that point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import SclError, TraceError


class Interval(NamedTuple):
    """A single true-interval ``[start, end]`` of a Boolean signal."""

    start: float
    end: float


def _check_finite(x: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise SclError(f"{what} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class BooleanSignal:
    """Truth signal over ``[start, end]`` as disjoint, merged true-intervals."""

    start: float
    end: float
    intervals: tuple[Interval, ...]

    @staticmethod
    def from_intervals(
        start: float, end: float, intervals: Iterable[tuple[float, float]]
    ) -> "BooleanSignal":
        """Build a normalized signal: clip to domain, sort, merge, drop points."""
        start = _check_finite(start, "domain start")
        end = _check_finite(end, "domain end")
        if end < start:
            raise SclError(f"empty domain: [{start}, {end}]")
        raw = [(_check_finite(s, "interval start"), _check_finite(e, "interval end"))
               for s, e in intervals]
        if start == end:
            # Degenerate domain: keep a point interval when true at the point.
            member = any(s <= start <= e for s, e in raw)
            ivs = (Interval(start, start),) if member else ()
            return BooleanSignal(start, end, ivs)
        clipped = []
        for s, e in raw:
            s, e = max(s, start), min(e, end)
            if e > s:
                clipped.append((s, e))
        clipped.sort()
        merged: list[list[float]] = []
        for s, e in clipped:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        return BooleanSignal(start, end, tuple(Interval(s, e) for s, e in merged))

    @staticmethod
    def always(start: float, end: float) -> "BooleanSignal":
        return BooleanSignal.from_intervals(start, end, [(start, end)])

    @staticmethod
    def never(start: float, end: float) -> "BooleanSignal":
        return BooleanSignal.from_intervals(start, end, [])

    @cached_property
    def starts_array(self) -> np.ndarray:
        return np.array([iv.start for iv in self.intervals], dtype=float)

    @cached_property
    def ends_array(self) -> np.ndarray:
        return np.array([iv.end for iv in self.intervals], dtype=float)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.start, self.end)

    def value_at(self, t: float) -> bool:
        """Membership of t in the (closed) true-intervals."""
        if t < self.start or t > self.end:
            raise SclError(f"time {t} outside signal domain [{self.start}, {self.end}]")
        idx = bisect_right(self.starts_array, t) - 1  # type: ignore[arg-type]
        return bool(idx >= 0 and self.ends_array[idx] >= t)

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.starts_array, ts, side="right") - 1
        ok = idx >= 0
        out = np.zeros(len(ts), dtype=bool)
        out[ok] = self.ends_array[idx[ok]] >= ts[ok]
        return out


def boolean_not(sig: BooleanSignal) -> BooleanSignal:
    """Complement within the domain."""
    if sig.start == sig.end:
        member = bool(sig.intervals)
        return BooleanSignal.from_intervals(
            sig.start, sig.end, [] if member else [(sig.start, sig.end)]
        )
    gaps = []
    prev = sig.start
    for s, e in sig.intervals:
        if s > prev:
            gaps.append((prev, s))
        prev = e
    if prev < sig.end:
        gaps.append((prev, sig.end))
    return BooleanSignal.from_intervals(sig.start, sig.end, gaps)


def _require_same_domain(a: BooleanSignal, b: BooleanSignal) -> None:
    if a.domain != b.domain:
        raise SclError(f"domain mismatch: {a.domain} vs {b.domain}")


def boolean_or(a: BooleanSignal, b: BooleanSignal) -> BooleanSignal:
    """Pointwise disjunction; requires equal domains."""
    _require_same_domain(a, b)
    return BooleanSignal.from_intervals(a.start, a.end, list(a.intervals) + list(b.intervals))


def boolean_and(a: BooleanSignal, b: BooleanSignal) -> BooleanSignal:
    """Pointwise conjunction; requires equal domains."""
    _require_same_domain(a, b)
    if a.start == a.end:
        both = bool(a.intervals) and bool(b.intervals)
        return BooleanSignal.from_intervals(a.start, a.end, [(a.start, a.end)] if both else [])
    out = []
    i = j = 0
    ia, ib = a.intervals, b.intervals
    while i < len(ia) and j < len(ib):
        s = max(ia[i].start, ib[j].start)
        e = min(ia[i].end, ib[j].end)
        if e > s:
            out.append((s, e))
        if ia[i].end <= ib[j].end:
            i += 1
        else:
            j += 1
    return BooleanSignal.from_intervals(a.start, a.end, out)


def restrict_domain(sig: BooleanSignal, interval: tuple[float, float]) -> BooleanSignal:
    """Intersect with ``interval`` and shrink the domain to it."""
    lo, hi = interval
    eps = 1e-9 * max(1.0, abs(sig.start), abs(sig.end))
    if lo < sig.start - eps or hi > sig.end + eps or hi < lo:
        raise SclError(
            f"restriction [{lo}, {hi}] outside signal domain [{sig.start}, {sig.end}]"
        )
    lo, hi = max(lo, sig.start), min(hi, sig.end)
    return BooleanSignal.from_intervals(lo, hi, sig.intervals)


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
