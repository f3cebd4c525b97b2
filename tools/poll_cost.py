"""Cost of a streaming poll, steady and busy apart, per formula, on the stream-day inputs.

    python3 tools/poll_cost.py ROOT

``ROOT`` is a checkout whose ``src/sclmon`` is imported, so one copy of this
script measures two checkouts alike.  The traces come from the ``perfbench/``
next to this script, as in ``tools/output_digest.py``: pool seeds 0-7 of the
stream-day workload, written as CSV and read back.  Each formula of the
stream-day spec, ``F[0,2] (G >= 180)``, the Gaussian
``<gauss(0.5,0.3)[0,1],0.5> (G >= 120)`` and the nested
``G[0,2] (<flat[0,1], 0.5> (G >= 100))`` is pushed and polled one sample at
a time.  From the first emitted slice on, each push+poll is one
measurement.  A poll is *busy* when one of its window-node evaluations
found a child truth edge strictly inside the windows' reach ``(t0 + lower,
t_end + upper)``, so that it can need the evaluator's general path and a
window integral, and *steady* otherwise, when every window is decided in
closed form.  The counting pass classifies each poll by its index, and the
timing pass's poll with the same index falls in that class.  Per formula it
prints

* ``steady_p50_us`` / ``steady_p99_us`` and ``busy_p50_us`` /
  ``busy_p99_us``: the median and 99th percentile of push+poll wall time in
  microseconds, per class, over all seeds (a timing pass with no spy);
* ``grid_per_poll``: ``monitor._grid_integrals`` calls per poll (a second,
  counting pass); a Gaussian window takes one more per round that narrows
  its crossings, so this also counts its probe rounds;
* ``anchors_per_poll``: the window integrals those calls take per poll,
  one per anchor;
* ``edge_share``: the share of window-node evaluations whose child held a
  truth edge in the windows' reach; only those can need a window integral;
* ``lag_h_max``: the largest delay of the emitted verdict beyond the
  formula's horizon, in hours: pushed time - horizon - emitted_to after
  each push+poll, maximised over the last three quarters of each replay
  and over all seeds (counting pass).  0 means every poll emitted all that
  the horizon lets it;
* ``steady`` / ``busy`` / ``polls``: the measured polls per class and in
  all.

The timing pass runs each seed's stream three times and keeps, per poll,
the fastest of the three, so a stray pause of the host does not count.
The script writes no file.
"""

from __future__ import annotations

import importlib
import io
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPEATS = 3


def timed_polls(sclmon, trace, f) -> list[float]:
    """Seconds per push+poll from the first emitted slice on (that one included)."""
    sm = sclmon.StreamingMonitor(f, trace.variables)
    costs, emitting = [], False
    for t, row in zip(trace.times.tolist(), trace.values.tolist()):
        start = time.perf_counter()
        sm.push(t, row)
        piece = sm.poll()
        elapsed = time.perf_counter() - start
        emitting = emitting or piece is not None
        if emitting:
            costs.append(elapsed)
    return costs


def counted_polls(sclmon, mon, trace, f,
                  ) -> tuple[tuple[int, int, int, int, int], float, list[bool]]:
    """(polls, grid integral calls, their anchors, window evaluations, those
    with an edge in reach), from the first emitted slice on; the lag beyond
    the horizon, maximised over the last three quarters of the replay; and
    per poll counted, whether it was busy."""
    counts = {"grid": 0, "anchors": 0, "windows": 0, "edges": 0}
    grid_integrals, evaluate = mon._grid_integrals, mon.eval_conv_efficient

    def grid_spy(kernel, sig, ts, *reach):
        counts["grid"] += 1
        counts["anchors"] += len(ts)
        return grid_integrals(kernel, sig, ts, *reach)

    def eval_spy(kernel, threshold, sig, *lo):
        t0 = sig.start
        t_end = max(sig.end - kernel.upper, t0)
        edges = np.concatenate((sig.starts, sig.ends))
        inside = (edges > t0 + kernel.lower) & (edges < t_end + kernel.upper)
        counts["windows"] += 1
        counts["edges"] += bool(inside.any())
        return evaluate(kernel, threshold, sig, *lo)

    mon._grid_integrals, mon.eval_conv_efficient = grid_spy, eval_spy
    try:
        sm = sclmon.StreamingMonitor(f, trace.variables)
        horizon, settled = sclmon.horizon(f), len(trace.times) // 4
        polls, emitting, emitted_to, lag, busy = 0, False, 0.0, 0.0, []
        for i, (t, row) in enumerate(zip(trace.times.tolist(), trace.values.tolist())):
            before = dict(counts)
            sm.push(t, row)
            piece = sm.poll()
            emitting = emitting or piece is not None
            if emitting:
                polls += 1
                busy.append(counts["edges"] > before["edges"])
            else:
                counts.update(before)
            if piece is not None:
                emitted_to = piece.end
            if i >= settled:
                lag = max(lag, t - horizon - emitted_to)
    finally:
        mon._grid_integrals, mon.eval_conv_efficient = grid_integrals, evaluate
    counted = polls, counts["grid"], counts["anchors"], counts["windows"], counts["edges"]
    return counted, lag, busy


def quantiles(us: np.ndarray) -> tuple[float, float]:
    """Median and 99th percentile, NaN for a class with no poll."""
    return tuple(np.percentile(us, (50, 99)).tolist()) if len(us) else (math.nan, math.nan)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True              # leave no __pycache__ in either tree
    from output_digest import NESTED, PERFBENCH, SEEDS

    src = Path(argv[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERFBENCH))
    import sclmon
    import workloads

    if Path(sclmon.__file__).resolve().parent != src / "sclmon":
        raise SystemExit(f"poll_cost: imported sclmon from {sclmon.__file__}, not {src}")
    mon = importlib.import_module("sclmon.monitor")
    wl = workloads.WORKLOADS["stream-day"]
    texts = [text for _, text, _ in
             sclmon.parse_formula_file((PERFBENCH / "specs" / wl.spec).read_text())]
    texts += ["F[0,2] (G >= 180)", "<gauss(0.5,0.3)[0,1],0.5> (G >= 120)", NESTED]
    traces = [sclmon.read_trace_csv(io.StringIO(wl.make_trace(seed, False).csv_text()))
              for seed in SEEDS]
    print(f"# {platform.python_version()} numpy {np.__version__}, "
          f"pool seeds {SEEDS.start}-{SEEDS.stop - 1}, stream-day traces")
    print(f"{'formula':<44} {'steady_p50_us':>13} {'steady_p99_us':>13} {'busy_p50_us':>11} "
          f"{'busy_p99_us':>11} {'grid_per_poll':>13} {'anchors_per_poll':>16} "
          f"{'edge_share':>10} {'lag_h_max':>9} {'steady':>6} {'busy':>6} {'polls':>6}")
    for text in texts:
        f = sclmon.parse(text)
        costs = []
        for trace in traces:
            runs = [timed_polls(sclmon, trace, f) for _ in range(REPEATS)]
            costs.extend(np.min(np.array(runs), axis=0).tolist())
        counted, lags, busy = zip(*(counted_polls(sclmon, mon, trace, f) for trace in traces))
        polls, grid, anchors, windows, edges = np.sum(counted, axis=0).tolist()
        us, busy = np.array(costs) * 1e6, np.concatenate(busy).astype(bool)
        if len(us) != len(busy):
            raise SystemExit(f"poll_cost: the passes measured {len(us)} and {len(busy)} polls")
        (s50, s99), (b50, b99) = quantiles(us[~busy]), quantiles(us[busy])
        print(f"{text:<44} {s50:13.1f} {s99:13.1f} {b50:11.1f} {b99:11.1f} "
              f"{grid / polls:13.3f} {anchors / polls:16.3f} {edges / windows:10.3f} "
              f"{max(lags):9.2f} {int((~busy).sum()):6d} {int(busy.sum()):6d} {polls:6d}",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
