"""Online monitoring facade: push samples, poll resolved verdict prefixes.

Samples go into growing numpy buffers, each checked once as it is pushed.
A poll evaluates the formula over the known prefix from where output was
last emitted, by the offline monitor's own span-restricted recursion: every
window node starts from its restart point, at or before what it must
produce now, which the previous poll left (see ``monitor._Restart``).
After a poll that emitted all it evaluated and whose last stretch was
quiet, that is the span end it emitted to, so the poll needs no cut;
otherwise it is a stretch bound, or a point inside a quiet stretch, before
it.  So a poll re-reads only the unresolved tail, plus at most the stretch
each window node straddles, and never copies or re-checks the prefix.  It
emits the newly resolved slice.  Before :meth:`StreamingMonitor.finish` a
slice ends at the verdict's ``stable_until``, before which no longer trace
can change it; after, at the verdict's own end.  A run from a restart point
finds the same stretches, H samples and roots as a run from 0, so the
concatenated output equals the offline verdict on the full trace exactly,
down to the double its domain ends at.  A poll on a prefix shorter than the
formula's horizon (decided before anything is evaluated), one whose
hold-back lies below time 0 (a nested window's early polls), and one that
finds nothing past what was already emitted return ``None``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import HorizonError, SclError, TraceError
from .formula import Formula, evaluable_end, variables
from .monitor import _eval_node, _Restart
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
        self._times = np.empty(64)
        self._values = np.empty((64, len(self.variables)))
        self._n = 0                              # samples held in the buffers
        self._duration: float | None = None      # set by finish
        self._emitted_to: float | None = None
        self._pieces: list[BooleanSignal] = []
        self._restarts: dict[tuple[int, ...], _Restart] = {}

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
        n = self._n
        if not n:
            if time != 0.0:
                raise TraceError(f"first sample must be at time 0, got {time}")
            time = 0.0                           # never -0.0, the domain starts at 0.0
        elif time == self._times[n - 1]:
            raise TraceError(f"duplicate timestamp {time}")
        elif time < self._times[n - 1]:
            raise TraceError(
                f"out-of-order sample: {time} after {self._times[n - 1]}"
            )
        if len(row) != len(self.variables):
            raise TraceError(
                f"sample has {len(row)} values for {len(self.variables)} variables"
            )
        if n == len(self._times):
            self._times = np.concatenate((self._times, np.empty(n)))
            self._values = np.concatenate((self._values, np.empty_like(self._values)))
        self._times[n] = time
        self._values[n] = row
        self._n = n + 1

    def finish(self, duration: float | None = None) -> None:
        """Mark end-of-stream; the final value holds up to ``duration``."""
        if not self._n:
            raise SclError("cannot finish an empty stream")
        last = float(self._times[self._n - 1])
        if duration is None:
            duration = last
        try:
            duration = float(duration)
            finite = math.isfinite(duration)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise TraceError(f"stream duration must be finite, got {duration!r}")
        if duration < last:
            raise TraceError(
                f"duration {duration} precedes last sample {last}"
            )
        self._duration = duration

    def poll(self) -> BooleanSignal | None:
        """Newly resolved verdict slice, or ``None`` when nothing new resolved."""
        n = self._n
        if not n:
            return None
        finished = self._duration is not None
        duration = self._duration if finished else float(self._times[n - 1])
        start = self._emitted_to
        if start is None:
            # after an emission no check is needed: the horizon was met on a
            # shorter prefix, and evaluable_end only grows with the duration
            try:
                evaluable_end(self.formula, duration)
            except HorizonError:
                return None
            start = 0.0
        prefix = PiecewiseConstantSignal._unchecked(self.variables, self._times[:n],
                                                    self._values[:n], duration)
        signal, _, stable = _eval_node(prefix, self.formula, start, self._restarts)
        # before the end, hold back content that a longer trace might still refine
        resolved = signal.end if finished else min(stable, signal.end)
        if resolved < start or resolved == self._emitted_to:
            return None
        piece = restrict_domain(signal, (start, resolved))
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
