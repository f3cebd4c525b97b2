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

:meth:`BooleanSignal.from_intervals` normalises input that is not known to
be normal: user input, the merge of :func:`boolean_or` and a stream's
assembled output.  An operation on
normal signals whose output is already sorted and disjoint
(:func:`boolean_not`, :func:`restrict_domain`, the monitor's atoms and
verdicts) builds that output directly, with the same selections, so it
holds the same doubles that normalising its pairs would give.
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
        self.starts.setflags(write=False)
        self.ends.setflags(write=False)

    @classmethod
    def _unchecked(cls, start: float, end: float, starts: np.ndarray,
                   ends: np.ndarray) -> "BooleanSignal":
        """A signal over normal, already read-only arrays, taken as they are:
        no copy, no check and no flag set (the package's own operations,
        whose arrays are fresh ones they marked or views of such)."""
        sig = object.__new__(cls)
        # the fields, set as the frozen dataclass's own __init__ would
        vars(sig).update(start=start, end=end, starts=starts, ends=ends)
        return sig

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
            return BooleanSignal._degenerate(start, end, np.any((s <= start) & (start <= e)))
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
        s, e = s[opens], np.maximum.reduceat(e, opens)
        s.setflags(write=False)
        e.setflags(write=False)
        return BooleanSignal._unchecked(start, end, s, e)

    @staticmethod
    def _degenerate(start: float, end: float, true: bool) -> "BooleanSignal":
        """The degenerate domain ``[start, end]``, ``start == end``: a point
        interval when true at the point, else nothing."""
        point = np.full(int(true), start)
        point.setflags(write=False)
        return BooleanSignal._unchecked(start, end, point, point)

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
        if not self.start <= t <= self.end:
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
    """Complement within the domain: the gaps between the true-intervals,
    less a zero-length first or last one."""
    start, end, starts, ends = sig.start, sig.end, sig.starts, sig.ends
    if start == end:
        return BooleanSignal._degenerate(start, end, not len(starts))
    gap_starts = np.concatenate(([start], ends))
    gap_ends = np.concatenate((starts, [end]))
    gap_starts.setflags(write=False)
    gap_ends.setflags(write=False)
    i = 0 if gap_ends[0] > start else 1
    j = len(gap_ends) if end > gap_starts[-1] else len(gap_ends) - 1
    return BooleanSignal._unchecked(start, end, gap_starts[i:j], gap_ends[i:j])


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
    """Intersect with ``interval`` and shrink the domain to it.

    The intervals kept are those ending after ``lo`` and starting before
    ``hi``; only the first start and the last end can need clipping.  The
    signal's own domain, to the sign of a zero bound, gives the signal back.
    """
    lo, hi = interval
    if not sig.start <= lo <= hi <= sig.end:
        raise SclError(
            f"restriction [{lo}, {hi}] outside signal domain [{sig.start}, {sig.end}]"
        )
    lo, hi = float(lo), float(hi)
    if (lo == sig.start and hi == sig.end
            and math.copysign(1.0, lo) == math.copysign(1.0, sig.start)
            and math.copysign(1.0, hi) == math.copysign(1.0, sig.end)):
        return sig
    if lo == hi:
        return BooleanSignal._degenerate(lo, hi, sig.value_at(lo))
    i = sig.ends.searchsorted(lo, side="right")
    j = sig.starts.searchsorted(hi, side="left")
    # views of the signal's read-only arrays, read-only themselves
    starts, ends = sig.starts[i:j], sig.ends[i:j]
    # the selections of from_intervals, so a -0.0 bound stays what it was
    if len(starts) and lo > starts[0]:
        starts = starts.copy()
        starts[0] = lo
        starts.setflags(write=False)
    if len(ends) and hi < ends[-1]:
        ends = ends.copy()
        ends[-1] = hi
        ends.setflags(write=False)
    return BooleanSignal._unchecked(lo, hi, starts, ends)


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """Ascending distinct values of a float array: ``np.unique`` by sort and
    neighbour compare, which leaves ``numpy.ma`` unimported."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


def check_unique_variables(names: tuple[str, ...], line: int | None = None) -> None:
    """A repeated name would make every lookup read its first column only."""
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        raise TraceError(f"repeated variable name(s) {repeated}", line=line)


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
        try:
            # a float, so every domain end derived from it is one
            duration = float(self.duration)
        except (TypeError, ValueError):
            raise TraceError(f"duration must be a number, got {self.duration!r}") from None
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "duration", duration)
        if times.ndim != 1 or len(times) == 0:
            raise TraceError("trace needs at least one sample")
        check_unique_variables(self.variables)
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise TraceError("trace contains non-finite entries")
        if times[0] != 0.0:
            raise TraceError(f"first sample must be at time 0, got {times[0]}")
        if np.signbit(times[0]):
            # a first time of -0.0 is stored as the domain's start, 0.0, in
            # a copy: the caller's array stays as it was
            times = times.copy()
            times[0] = 0.0
            object.__setattr__(self, "times", times)
        if np.any(np.diff(times) <= 0):
            raise TraceError("sample times must be strictly increasing")
        if values.shape != (len(times), len(self.variables)):
            raise TraceError(
                f"value matrix shape {values.shape} does not match "
                f"{len(times)} samples x {len(self.variables)} variables"
            )
        if not math.isfinite(duration) or duration < times[-1]:
            raise TraceError(
                f"duration {duration} shorter than last sample time {times[-1]}"
            )

    @classmethod
    def _unchecked(cls, variables: tuple[str, ...], times: np.ndarray, values: np.ndarray,
                duration: float) -> "PiecewiseConstantSignal":
        """A trace over arrays that were checked as they were filled, taken
        as they are: no copy and no check (a stream's buffers, per poll)."""
        trace = object.__new__(cls)
        # the fields, set as the frozen dataclass's own __init__ would
        vars(trace).update(variables=variables, times=times, values=values, duration=duration)
        return trace

    def column(self, variable: str) -> int:
        try:
            return self.variables.index(variable)
        except ValueError:
            raise SclError(
                f"unknown variable {variable!r}; trace has {list(self.variables)}"
            ) from None

    def segment_index(self, t):
        """Per time in ``[0, duration]``, the latest sample at or before it;
        but a last sample at a positive duration holds for no time."""
        # searched among the samples that start a segment, the last of them
        # answers every later time
        segments = len(self.times) - (1 if 0.0 < self.duration == self.times[-1] else 0)
        return self.times[:segments].searchsorted(t, side="right") - 1

    def value_at(self, t: float, variable: str) -> float:
        if not 0 <= t <= self.duration:
            raise SclError(f"time {t} outside trace domain [0, {self.duration}]")
        return float(self.values[self.segment_index(t), self.column(variable)])

    def variable_values(self, variable: str) -> np.ndarray:
        return self.values[:, self.column(variable)]
