"""Traced in-process run: per-layer self times and counts.

Spans are recorded here, in the benchmark, around calls into the public
functions of each ``sclmon`` module; the program itself is not instrumented.
After one untimed warm-up pass, each cycle makes three passes over the
workload's inputs:

1. untraced: the workload's operation in-process (read, parse, ``run_monitor``;
   or the stream replay), timed as a whole;
2. traced: the same calls, each inside a span; the difference of the two
   wall times is ``bench.trace_overhead_s``;
3. breakdown: ``monitor(trace, sub)`` for every subformula, whose self time is
   its time minus its children's; one ``eval_conv_efficient`` per window node
   for the H-evaluation, edge and crossing counts; ``rho_trace`` and ``rho``
   at t=0 per formula on the robustness workload.

Cycles repeat while they fit in the run's seconds; times are medians over
cycles, counts come from the last one (they repeat exactly).
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import gate
import stream_replay
from workloads import ROOT, SRC, Prepared, child_env

IMPORT_REPEATS = 3
NODE_METRICS = ("monitor.atom_s", "monitor.conv_flat_s", "monitor.conv_exp_s",
                "monitor.conv_gauss_s", "monitor.conv_gf_s", "signals.bool_s")


class Tracer:
    """Spans kept in memory: name, start, end, parent id (plus attributes)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part covered by child spans."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = res.stdout.strip() or sha
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha}


def import_times(module: str) -> dict[str, float]:
    """Self import time per package, summed over its modules (``-X importtime``)."""
    runs: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                             env=child_env(), capture_output=True, text=True, check=True)
        total: dict[str, float] = defaultdict(float)
        for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", res.stderr):
            total[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
        for pkg in ("sclmon", "scipy", "numpy"):
            runs[f"import.{pkg}_s"].append(total[pkg])
    return {k: statistics.median(v) for k, v in runs.items()}


def _category(node) -> str | None:
    from sclmon import (And, Atom, Const, Conv, ConvDual, ExponentialKernel, FlatKernel,
                        GaussianKernel, Implies, Not, Or)

    if isinstance(node, (Atom, Const)):
        return "monitor.atom_s"
    if isinstance(node, (Not, And, Or, Implies)):
        return "signals.bool_s"
    if isinstance(node, (Conv, ConvDual)):
        if isinstance(node.kernel, FlatKernel):
            return "monitor.conv_gf_s" if node.threshold in (0.0, 1.0) else "monitor.conv_flat_s"
        if isinstance(node.kernel, ExponentialKernel):
            return "monitor.conv_exp_s"
        if isinstance(node.kernel, GaussianKernel):
            return "monitor.conv_gauss_s"
    return None


def _children(node) -> list:
    return [getattr(node, a) for a in ("child", "left", "right") if hasattr(node, a)]


def breakdown(trace, formula, tracer: Tracer, times: dict, counts: dict) -> float:
    """Self time per node kind, and conv counts; returns the root monitor time."""
    from sclmon import ConvDual, boolean_not, eval_conv_efficient, monitor

    def visit(node):
        kids = [visit(k) for k in _children(node)]
        with tracer.span("monitor.monitor", node=type(node).__name__) as rec:
            verdict = monitor(trace, node)
        took = rec["end"] - rec["start"]
        times[_category(node)] += took - sum(t for t, _ in kids)
        if hasattr(node, "kernel"):
            sig = kids[0][1].signal
            p = node.threshold
            if isinstance(node, ConvDual):
                sig, p = boolean_not(sig), 1.0 - p
            ev = eval_conv_efficient(node.kernel, p, sig)
            counts["monitor.h_evals"] += len(ev.times)
            counts["monitor.child_edges"] += sum((s > sig.start) + (e < sig.end)
                                                 for s, e in sig.intervals)
            counts["monitor.crossings"] += len(ev.verdict.crossings)
        return took, verdict

    return visit(formula)[0]


def _cli_pass(p: Prepared, span) -> tuple[list, list[str]]:
    from sclmon import parse_formula_file, read_trace_csv
    from sclmon.cli import RunConfig, run_monitor

    with span("traces.read_trace_csv"):
        trace = read_trace_csv(p.trace)
    text = p.spec.read_text()
    with span("parser.parse_formula_file"):
        formulas = parse_formula_file(text)
    mode = "robustness" if p.workload.kind == "rho" else "boolean"
    with span("cli.run_monitor"):
        results = run_monitor(trace, formulas, RunConfig(mode=mode))
    problems = []
    for i, (r, g) in enumerate(zip(results, p.gold)):
        if r.robustness is not None:
            why = gate.rho_mismatch(r.satisfied, [float(t) for t in r.robustness.times],
                                    [float(v) for v in r.robustness.values], g)
        else:
            sig = r.verdict.signal
            why = gate.verdict_mismatch(r.satisfied, (sig.start, sig.end),
                                        [list(iv) for iv in sig.intervals], g)
        if why:
            problems.append(f"formula {i}: {why}")
    return [trace, [f for _, _, f in formulas]], problems


def _stream_pass(p: Prepared, span) -> tuple[dict, list[str]]:
    from sclmon import parse_formula_file

    variables, times, values = stream_replay.read_samples(str(p.trace))
    text = p.spec.read_text()
    with span("parser.parse_formula_file"):
        formulas = [f for _, _, f in parse_formula_file(text)]
    res = stream_replay.replay(formulas, variables, times, values, span=span)
    res["formulas"] = stream_replay.check_against_offline(res.pop("monitors"), formulas,
                                                          variables, times, values)
    res["inputs"] = (variables, times, values, formulas)
    return res, gate.stream_mismatches(res, p.gold)


def _untraced(name: str):
    return nullcontext()


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def run(p: Prepared, seconds: float) -> tuple[dict, int, int, dict]:
    """Per-layer metrics, operations attempted, operations failed, trace document."""
    sys.path.insert(0, str(SRC))
    import sclmon
    if Path(sclmon.__file__).resolve().parent != (SRC / "sclmon").resolve():
        raise SystemExit(f"perfbench: imported sclmon from {sclmon.__file__}, not {SRC}")
    import sclmon.cli  # noqa: F401  (imported before the first timed pass, not in it)
    from sclmon import PiecewiseConstantSignal, rho, rho_trace

    metrics: dict[str, float] = dict(import_times(p.workload.entry_module))
    samples: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = {}
    stream = p.workload.kind == "stream"
    one_pass = _stream_pass if stream else _cli_pass
    start = time.perf_counter()
    # an untimed first pass pays for lazy set-up (first calls, the thread pool),
    # which would otherwise land on whichever timed pass ran first
    _, why = one_pass(p, _untraced)
    attempted, failed, problems = 1, int(bool(why)), list(why)
    last_cycle = 0.0
    tracer = Tracer()
    while attempted == 1 or time.perf_counter() - start + last_cycle <= seconds:
        cycle_start = time.perf_counter()
        tracer = Tracer()
        passes = []
        for span in (_untraced, tracer.span):
            t0 = time.perf_counter()
            out, why = one_pass(p, span)
            passes.append((time.perf_counter() - t0, out))
            attempted += 1
            failed += bool(why)
            problems += why
        samples["bench.trace_overhead_s"].append(passes[1][0] - passes[0][0])
        selfs = tracer.self_times()
        for name, key in (("traces.read_trace_csv", "traces.read_s"),
                          ("parser.parse_formula_file", "parser.parse_s"),
                          ("cli.run_monitor", "cli.run_monitor_s"),
                          ("streaming.push", "streaming.push_s"),
                          ("streaming.poll", "streaming.poll_s")):
            samples[key].append(selfs.get(name, 0.0))

        node_times: dict = defaultdict(float)
        cycle_counts: dict = defaultdict(float)
        busy = 0.0
        if stream:
            res = passes[0][1]
            variables, times, values, formulas = res["inputs"]
            trace = PiecewiseConstantSignal(variables, np.array(times), np.array(values), times[-1])
            cycle_counts["streaming.polls"] = res["polls"]
            cycle_counts["streaming.emit_ratio"] = res["emits"] / res["polls"]
            cycle_counts["poll_samples"] = len(res["latencies_ms"])
            cycle_counts["lag_h_p50"] = _pct(res["lags_h"], 50)
            cycle_counts["lag_h_max"] = max(res["lags_h"])
            samples["poll_ms_p50"].append(_pct(res["latencies_ms"], 50))
            samples["poll_ms_p99"].append(_pct(res["latencies_ms"], 99))
        else:
            trace, formulas = passes[0][1]
            cycle_counts["traces.rows"] = len(trace.times)
        for f in formulas:
            with tracer.span("formula"):
                busy += breakdown(trace, f, tracer, node_times, cycle_counts)
                if p.workload.kind == "rho":
                    with tracer.span("robustness.rho_trace") as rec:
                        rt = rho_trace(trace, f)
                    busy += rec["end"] - rec["start"]
                    cycle_counts["robustness.points"] += len(rt.times)
                    with tracer.span("robustness.rho"):
                        rho(trace, f, 0.0)
        selfs = tracer.self_times()
        samples["robustness.rho_trace_s"].append(selfs.get("robustness.rho_trace", 0.0))
        samples["robustness.point_s"].append(selfs.get("robustness.rho", 0.0))
        for key in NODE_METRICS:
            samples[key].append(node_times.get(key, 0.0))
        run_monitor_s = samples["cli.run_monitor_s"][-1]
        samples["cli.pool_speedup"].append(busy / run_monitor_s if run_monitor_s else 0.0)
        counts = dict(cycle_counts)
        last_cycle = time.perf_counter() - cycle_start

    metrics.update({k: statistics.median(v) for k, v in samples.items()})
    for key in ("traces.rows", "monitor.h_evals", "monitor.child_edges", "monitor.crossings",
                "robustness.points", "streaming.polls", "streaming.emit_ratio",
                "poll_samples", "lag_h_p50", "lag_h_max"):
        metrics[key] = counts.get(key, 0.0)
    metrics["monitor.crossings_per_h_eval"] = (
        metrics["monitor.crossings"] / metrics["monitor.h_evals"] if metrics["monitor.h_evals"] else 0.0)
    for key in ("poll_ms_p50", "poll_ms_p99"):
        metrics.setdefault(key, 0.0)
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    doc = {"workload": p.workload.name, "pool_seed": p.pool_seed, "environment": environment(),
           "metrics": metrics, "problems": problems,
           "spans": [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in tracer.spans]}
    return metrics, attempted, failed, doc


def write_trace(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
