"""sclmon benchmark: end-to-end and per-layer metrics on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload, one table

``--trace 0`` spawns the workload's operation as a child process in a closed
loop with one client (the next operation starts when the previous one has
exited) for about ``--seconds`` seconds, at least four operations (six stream
replays, which take longer than ``--seconds``, and at least 1000 push+poll
pairs).  The CLI inputs are sized so that one operation takes about two
seconds on a 2-vCPU VM: ``wall_s`` is then a median over many operations
spread across the whole run, not over a few.  Every operation is checked
against the golden recorded for its input (``gate.py``).
``--trace 1`` makes the traced in-process run (``traced.py``) instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) names of
``BENCHMARK.json``.  ``setup_s`` and ``wall_s`` are medians divided by the
run's host factor: the median time of ``calibrate.py``, spawned after each
import sample, over ``CAL_REF_S``.  The lines before the result print every
metric the run measured with its unit: the raw medians, the host factor, the
stream-only metrics and ``error_rate`` included.
The program is always run from this checkout's ``src/``; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gate
import workloads
from workloads import (ROOT, WORKLOADS, prepare, require_source, run_op, time_calibration,
                       time_import)

SETUP_FIRST = 3            # import and calibration timings before the first operation
SETUP_PER_OP = 1           # and after each one
# calibrate.py's median time on the 2-vCPU VM where the benchmark was
# defined: setup_s and wall_s are expressed at that host's speed
CAL_REF_S = 0.55
# operations per run at least, whatever --seconds says; a stream replay takes
# about 7 s and varies by up to 30% from one replay to the next on a shared
# 2-vCPU VM, so its median needs more of them than the 2 s CLI calls do
MIN_OPS = {"check": 4, "rho": 4, "stream": 6}
MIN_POLL_PAIRS = 1000
HARD_STOP_S = 100.0          # start no operation after this: with OP_TIMEOUT_S a run ends in 180 s

UNITS = {"setup_s": "s", "wall_s": "s", "setup_raw_s": "s", "wall_raw_s": "s",
         "host_factor": "ratio", "peak_rss_mb": "MB", "poll_ms_p50": "ms",
         "poll_ms_p99": "ms", "poll_samples": "count", "lag_h_p50": "h", "lag_h_max": "h",
         "error_rate": "ratio"}


def measure(p: workloads.Prepared, seconds: float, work: Path) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of one workload, with tracing off."""
    wl = p.workload
    # import samples are spread over the run, so that they see the same
    # machine as the operations do
    setup = time_import(wl.entry_module, SETUP_FIRST)
    cal = time_calibration(SETUP_FIRST)
    walls, rss, latencies, lags, problems = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    last_op = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = attempted >= MIN_OPS[wl.kind] and (wl.kind != "stream" or len(latencies) >= MIN_POLL_PAIRS)
        if (enough and elapsed + last_op > seconds) or elapsed > HARD_STOP_S:
            break
        t0 = time.perf_counter()
        op = run_op(p, work)
        setup += time_import(wl.entry_module, SETUP_PER_OP)
        cal += time_calibration(SETUP_PER_OP)
        last_op = time.perf_counter() - t0
        attempted += 1
        walls.append(op.wall_s)
        rss.append(op.rss_mb)
        if wl.kind == "stream":
            why = (gate.stream_mismatches(op.output, p.gold) if op.returncode == 0
                   else [f"exit code {op.returncode}"])
            if op.returncode == 0:
                latencies += op.output["latencies_ms"]
                lags += op.output["lags_h"]
        else:
            why = gate.cli_mismatches(op.output, op.returncode, p.gold)
        if why:
            failed += 1
            problems += why + ([op.stderr.strip()] if op.stderr.strip() and op.returncode == 2 else [])
    # a shared host's speed drifts by up to 1.8x over minutes, so that runs
    # of the same code minutes apart differ by more than any bound; the run's
    # calibration median measures that speed, and both times are divided by it
    host = statistics.median(cal) / CAL_REF_S
    metrics = {"setup_s": statistics.median(setup) / host, "wall_s": statistics.median(walls) / host,
               "peak_rss_mb": statistics.median(rss), "error_rate": failed / attempted,
               "setup_raw_s": statistics.median(setup), "wall_raw_s": statistics.median(walls),
               "host_factor": host}
    if latencies:
        metrics.update(poll_ms_p50=float(np.percentile(latencies, 50)),
                       poll_ms_p99=float(np.percentile(latencies, 99)),
                       poll_samples=len(latencies),
                       lag_h_p50=float(np.percentile(lags, 50)), lag_h_max=max(lags))
    return metrics, attempted, failed, problems


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(spec_metrics: list[dict], metrics: dict, attempted: int, failed: int) -> str:
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: run did not measure {missing}")
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    })


def print_table(name: str, metrics: dict, units: dict, problems: list[str]) -> None:
    for key, value in metrics.items():
        print(f"{name:12s} {key:30s} {value:14.6g} {units.get(key, '')}")
    for why in problems[:20]:
        print(f"{name:12s} FAILED: {why}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 golden: Path | None, spec: dict) -> tuple[str, dict, int, int]:
    import traced

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        p = prepare(WORKLOADS[name], seed, tiny, work, golden_file=golden)
        print(f"{name}: pool seed {p.pool_seed}, input {p.input_entry}")
        if trace:
            metrics, attempted, failed, doc = traced.run(p, seconds)
            out = work_root / f"trace-{name}-seed{seed}.json"
            traced.write_trace(doc, out)
            print(f"environment: {json.dumps(doc['environment'])}")
            print(f"spans and metrics written to {out}")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            print_table(name, metrics, units, doc["problems"])
            return result_line(spec["per_layer"], metrics, attempted, failed), metrics, attempted, failed
        metrics, attempted, failed, problems = measure(p, seconds, work)
        print(f"{name}: {attempted} operations, closed loop, one client")
        print_table(name, metrics, UNITS, problems)
        return result_line(spec["end_to_end"], metrics, attempted, failed), metrics, attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all of them, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs with their own goldens (for the smoke test)")
    ap.add_argument("--golden", type=Path, default=None,
                    help="golden file to check against (default: golden/<workload>.json)")
    args = ap.parse_args(argv)
    if args.golden and not args.workload:
        ap.error("--golden needs --workload")
    require_source()
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload:
        line = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.tiny,
                            args.golden, spec)[0]
        print(line)
        return 0
    total_attempted = total_failed = 0
    for name in WORKLOADS:
        _, _, attempted, failed = run_workload(name, args.seed, seconds, bool(args.trace),
                                               args.tiny, args.golden, spec)
        total_attempted += attempted
        total_failed += failed
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
