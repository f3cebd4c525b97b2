"""Replay a trace into one ``StreamingMonitor`` per formula, one sample at a time.

Run as a child process by ``run.py`` (``python3 stream_replay.py TRACE SPEC
OUT``): it imports ``sclmon``, replays the trace in a closed loop (push, then
poll, for every monitor, for every sample), calls ``finish``, and writes the
timings, the verdict lag after each poll and the assembled output to ``OUT``
as JSON.  The check that the assembled output equals offline ``monitor()``
runs after the timed replay.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from contextlib import nullcontext


def read_samples(path: str) -> tuple[tuple[str, ...], list[float], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    variables = tuple(rows[0][1:])
    return variables, [float(r[0]) for r in rows[1:]], [[float(x) for x in r[1:]] for r in rows[1:]]


def replay(formulas, variables, times, values, span=None) -> dict:
    """Closed-loop replay; ``span(name)`` wraps each push and poll when given."""
    from sclmon import StreamingMonitor

    span = span or (lambda name: nullcontext())
    monitors = [StreamingMonitor(f, variables) for f in formulas]
    emitted = [0.0] * len(monitors)
    latencies_ms: list[float] = []
    lags_h: list[float] = []
    polls = emits = 0
    start = time.perf_counter()
    for t, row in zip(times, values):
        for k, m in enumerate(monitors):
            t0 = time.perf_counter()
            with span("streaming.push"):
                m.push(t, row)
            with span("streaming.poll"):
                piece = m.poll()
            latencies_ms.append(1e3 * (time.perf_counter() - t0))
            polls += 1
            if piece is not None:
                emits += 1
                emitted[k] = piece.end
            lags_h.append(t - emitted[k])
    for m in monitors:
        m.finish()
        with span("streaming.poll"):
            piece = m.poll()
        polls += 1
        emits += piece is not None
    wall = time.perf_counter() - start
    return {"wall_s": wall, "latencies_ms": latencies_ms, "lags_h": lags_h,
            "polls": polls, "emits": emits, "monitors": monitors}


def check_against_offline(monitors, formulas, variables, times, values) -> list[dict]:
    import numpy as np
    from sclmon import PiecewiseConstantSignal, monitor

    trace = PiecewiseConstantSignal(variables, np.array(times), np.array(values), times[-1])
    out = []
    for m, f in zip(monitors, formulas):
        online = m.resolved_signal()
        offline = monitor(trace, f).signal
        out.append({
            "equals_offline": online is not None and online == offline,
            "satisfied_at_zero": online is not None and online.value_at(online.start),
            "domain": [online.start, online.end] if online is not None else [0.0, 0.0],
            "intervals": [list(iv) for iv in online.intervals] if online is not None else [],
        })
    return out


def main(trace_path: str, spec_path: str, out_path: str) -> int:
    from sclmon import parse_formula_file

    variables, times, values = read_samples(trace_path)
    with open(spec_path) as fh:
        formulas = [f for _, _, f in parse_formula_file(fh.read())]
    result = replay(formulas, variables, times, values)
    result["formulas"] = check_against_offline(result.pop("monitors"), formulas,
                                               variables, times, values)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
