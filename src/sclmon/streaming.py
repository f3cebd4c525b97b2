"""Online monitoring facade: push samples, poll resolved verdict prefixes.

Each poll re-runs the offline monitor on the known prefix and emits the
newly resolved slice.  Before :meth:`StreamingMonitor.finish` a slice ends
at the verdict's ``stable_until``, before which no longer trace can change
it; after, at the verdict's own end.  Because the offline evaluators are
prefix-stable and deterministic, the concatenated output equals the offline
verdict on the full trace exactly, down to the double its domain ends at.
A poll on a prefix shorter than the formula's horizon, one whose hold-back
lies below time 0 (a nested window's early polls), and one that finds
nothing past what was already emitted return ``None``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import HorizonError, SclError, TraceError
from .formula import Formula, variables
from .monitor import monitor
from .signals import (
    BooleanSignal,
    PiecewiseConstantSignal,
    check_unique_variables,
    restrict_domain,
)


class StreamingMonitor:
    """Single-producer online monitor; push/poll must be externally serialized."""

    def __init__(self, formula: Formula, trace_variables: Sequence[str]):
        self.formula = formula
        self.variables = tuple(trace_variables)
        check_unique_variables(self.variables)
        missing = set(variables(formula)) - set(self.variables)
        if missing:
            raise SclError(f"formula uses variables not in the stream: {sorted(missing)}")
        self._times: list[float] = []
        self._values: list[list[float]] = []
        self._duration: float | None = None   # set by finish
        self._emitted_to: float | None = None
        self._pieces: list[BooleanSignal] = []

    def push(self, time: float, values: Sequence[float]) -> None:
        """Append one sample; times must be strictly increasing, starting at 0."""
        if self._duration is not None:
            raise SclError("stream already finished")
        try:
            time = float(time)
            # a string would pass as a row of its characters
            row = None if isinstance(values, (str, bytes)) else [float(v) for v in values]
        except (TypeError, ValueError):
            row = None
        if row is None:
            raise TraceError(f"sample at time {time!r} is not a number and a sequence "
                             f"of numbers: {values!r}")
        if not math.isfinite(time) or not all(map(math.isfinite, row)):
            raise TraceError(f"non-finite sample at time {time}: {row}")
        if not self._times:
            if time != 0.0:
                raise TraceError(f"first sample must be at time 0, got {time}")
        elif time == self._times[-1]:
            raise TraceError(f"duplicate timestamp {time}")
        elif time < self._times[-1]:
            raise TraceError(
                f"out-of-order sample: {time} after {self._times[-1]}"
            )
        if len(row) != len(self.variables):
            raise TraceError(
                f"sample has {len(row)} values for {len(self.variables)} variables"
            )
        self._times.append(time)
        self._values.append(row)

    def finish(self, duration: float | None = None) -> None:
        """Mark end-of-stream; the final value holds up to ``duration``."""
        if not self._times:
            raise SclError("cannot finish an empty stream")
        if duration is None:
            duration = self._times[-1]
        try:
            duration = float(duration)
            finite = math.isfinite(duration)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise TraceError(f"stream duration must be finite, got {duration!r}")
        if duration < self._times[-1]:
            raise TraceError(
                f"duration {duration} precedes last sample {self._times[-1]}"
            )
        self._duration = duration

    def poll(self) -> BooleanSignal | None:
        """Newly resolved verdict slice, or ``None`` when nothing new resolved."""
        if not self._times:
            return None
        finished = self._duration is not None
        prefix = PiecewiseConstantSignal(self.variables, np.array(self._times),
                                         np.array(self._values),
                                         self._duration if finished else self._times[-1])
        try:
            verdict = monitor(prefix, self.formula)
        except HorizonError:
            return None
        # before the end, hold back content that a longer trace might still refine
        resolved = verdict.signal.end if finished else verdict.stable_until
        start = verdict.signal.start if self._emitted_to is None else self._emitted_to
        if resolved < start or resolved == self._emitted_to:
            return None
        piece = restrict_domain(verdict.signal, (start, resolved))
        self._emitted_to = resolved
        self._pieces.append(piece)
        return piece

    def resolved_signal(self) -> BooleanSignal | None:
        """Union of everything emitted so far, over ``[0, emitted_to]``."""
        if self._emitted_to is None:
            return None
        starts = np.concatenate([piece.starts for piece in self._pieces])
        ends = np.concatenate([piece.ends for piece in self._pieces])
        return BooleanSignal.from_intervals(
            self._pieces[0].start, self._emitted_to, np.column_stack((starts, ends))
        )
