"""Online monitoring facade: push samples, poll resolved verdict prefixes.

A verdict at time t only depends on the trace up to ``t + horizon``, so once
samples are known up to time T the verdict is resolved on
``[0, T - horizon]``.  Each poll re-runs the offline monitor on the known
prefix and emits the newly resolved slice; because the offline evaluators are
prefix-stable and deterministic, the concatenated output equals the offline
verdict on the full trace exactly.  Before :meth:`StreamingMonitor.finish`
a slice also ends at the verdict's ``stable_until``.  A nested window can
put that below time 0 on early polls; such a poll, like one that finds
nothing past what was already emitted, returns ``None``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import SclError, TraceError
from .formula import Formula, horizon, variables
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
        self.horizon = horizon(formula)
        self._times: list[float] = []
        self._values: list[list[float]] = []
        self._finished = False
        self._duration: float | None = None
        self._emitted_to: float | None = None
        self._pieces: list[BooleanSignal] = []

    def push(self, time: float, values: Sequence[float]) -> None:
        """Append one sample; times must be strictly increasing, starting at 0."""
        if self._finished:
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
        if not math.isfinite(duration):
            raise TraceError(f"stream duration must be finite, got {duration}")
        if duration < self._times[-1]:
            raise TraceError(
                f"duration {duration} precedes last sample {self._times[-1]}"
            )
        self._duration = float(duration)
        self._finished = True

    def _known_until(self) -> float | None:
        if self._finished:
            return self._duration
        if not self._times:
            return None
        return self._times[-1]

    def poll(self) -> BooleanSignal | None:
        """Newly resolved verdict slice, or ``None`` when nothing new resolved."""
        known = self._known_until()
        if known is None:
            return None
        resolved = known - self.horizon
        if resolved < 0:
            return None
        prefix = PiecewiseConstantSignal(
            self.variables,
            np.array(self._times),
            np.array(self._values),
            known,
        )
        verdict = monitor(prefix, self.formula)
        if not self._finished:
            # hold back content that a longer trace might still refine
            resolved = min(resolved, verdict.stable_until)
        start = verdict.signal.start if self._emitted_to is None else self._emitted_to
        # a nested window's hold-back can fall below the start on early polls
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
