"""Record the goldens the correctness gate compares against.

    python3 perfbench/record_golden.py

For every workload, size (full and tiny) and pool seed, this runs one
operation exactly as ``run.py`` does and stores the outputs with the input's
sample count, duration and sha256 in ``golden/<workload>.json``.  It then
spot-checks the full-size goldens of pool seed 0 against brute-force
references and writes what was checked, and what was not and why, to
``golden/spot_checks.json``.  The goldens are recorded once, at the commit
that defines the benchmark; re-recording them turns the gate off.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gate
import inputs
from workloads import (GOLDEN, ROOT, SRC, WORKLOADS, golden_path, prepare, require_source,
                       run_op)

RHO_SPOT_POINTS = 25
# rho goldens keep every 4th grid point, rounded to 1e-7 (the gate allows 1e-5),
# which keeps them a few hundred kB
RHO_STRIDE = 4


def golden_entry(kind: str, doc: dict) -> dict:
    if kind == "rho":
        values = doc["robustness"]["values"]
        keep = gate.rho_indices(len(values), RHO_STRIDE)
        return {"satisfied_at_zero": doc["satisfied_at_zero"],
                "rho_end": doc["robustness"]["times"][-1], "rho_points": len(values),
                "rho_stride": RHO_STRIDE, "rho": [round(values[i], 7) for i in keep]}
    if kind == "stream":
        return {k: doc[k] for k in ("satisfied_at_zero", "domain", "intervals")}
    return {"satisfied_at_zero": doc["satisfied_at_zero"],
            "domain": [doc["domain"]["start"], doc["domain"]["end"]],
            "intervals": gate.true_intervals(doc["segments"])}


def record_one(wl, seed: int, tiny: bool, work: Path, report: list[dict]) -> dict:
    p = prepare(wl, seed, tiny, work, with_golden=False)
    op = run_op(p, work)
    if op.returncode == 2:
        raise SystemExit(f"{wl.name} seed {seed}: exit code 2\n{op.stderr}")
    docs = op.output["formulas"] if wl.kind == "stream" else op.output
    for i, d in enumerate(docs if wl.kind == "stream" else []):
        # not a golden question: the gate requires this on every operation,
        # so an input where it fails fails every run on that input
        entry = {"workload": wl.name, "size": "tiny" if tiny else "full", "pool_seed": seed,
                 "formula": i, "reference": "offline monitor(), exact equality",
                 "ok": d["equals_offline"]}
        print(json.dumps(entry), flush=True)
        report.append(entry)
    return {"input": p.input_entry, "formulas": [golden_entry(wl.kind, d) for d in docs]}


def rho_by_enumeration(kernel, threshold: float, times, signed, t: float) -> float:
    """sup{r : kernel mass of {inner > r} >= p}, by enumerating segment values:
    the kernel-weighted p-quantile of the window, counted from the top."""
    lo, hi = t + kernel.lower, t + kernel.upper
    bounds = np.concatenate([times, [np.inf]])
    a = np.clip(bounds[:-1], lo, hi)
    b = np.clip(bounds[1:], lo, hi)
    keep = b > a
    masses = np.asarray(kernel.mass_clipped(a[keep] - t, b[keep] - t), dtype=float)
    vals = signed[keep]
    cum = 0.0
    for v in np.unique(vals)[::-1]:
        cum += float(masses[vals == v].sum())
        # the tolerance keeps a quantile that falls exactly on a sample
        # boundary (p * width a whole number of pitches) from being lost to
        # rounding in the running sum
        if cum >= threshold - 1e-9 or abs(cum - 1.0) <= 1e-9:
            return float(v)
    return -np.inf


def max_width(f) -> float:
    kernel = getattr(f, "kernel", None)
    children = [getattr(f, name) for name in ("child", "left", "right") if hasattr(f, name)]
    return max([kernel.width if kernel else 0.0, *(max_width(c) for c in children)])


def spot_checks(work: Path) -> list[dict]:
    sys.path.insert(0, str(SRC))
    from sclmon import Atom, Conv, MonitorConfig, Not, monitor, parse_formula_file, read_trace_csv

    report = []
    for wl in WORKLOADS.values():
        p = prepare(wl, 0, False, work)
        trace = read_trace_csv(p.trace)
        formulas = [f for _, _, f in parse_formula_file(p.spec.read_text())]
        for i, (f, g) in enumerate(zip(formulas, p.gold)):
            entry = {"workload": wl.name, "pool_seed": 0, "formula": i}
            if wl.kind == "rho":
                negate = isinstance(f, Not)
                conv = f.child if negate else f
                assert isinstance(conv, Conv) and isinstance(conv.child, Atom)
                atom = conv.child
                vals = trace.variable_values(atom.variable)
                signed = vals - atom.threshold if atom.op in (">=", ">") else atom.threshold - vals
                idx = gate.rho_indices(g["rho_points"], g["rho_stride"])
                pick = np.linspace(0, len(idx) - 1, RHO_SPOT_POINTS).round().astype(int)
                pitch = conv.kernel.width / 1000.0          # rho_trace's default grid
                worst = 0.0
                for k in pick:
                    t = g["rho_end"] if idx[k] == g["rho_points"] - 1 else idx[k] * pitch
                    ref = rho_by_enumeration(conv.kernel, conv.threshold, trace.times, signed, t)
                    worst = max(worst, abs((-ref if negate else ref) - g["rho"][k]))
                entry.update(reference="weighted-quantile enumeration", points=RHO_SPOT_POINTS,
                             max_abs_error=worst, ok=worst <= gate.RHO_TOL)
            else:
                t0 = time.perf_counter()
                v = monitor(trace, f, MonitorConfig(evaluator="oracle"))
                diff = gate.symmetric_difference([list(iv) for iv in v.signal.intervals],
                                                 g["intervals"])
                # the oracle interpolates each crossing on a grid of width/2000
                allowed = (2 * len(g["intervals"]) + 1) * 2.0 * max_width(f) / 2000.0
                entry.update(reference="grid oracle", seconds=round(time.perf_counter() - t0, 2),
                             symmetric_difference=diff,
                             ok=v.satisfied_at_zero == g["satisfied_at_zero"] and diff <= allowed)
            print(json.dumps(entry), flush=True)
            report.append(entry)
    return report


def main() -> int:
    require_source()
    GOLDEN.mkdir(exist_ok=True)
    report: list[dict] = []
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        work = Path(tmp)
        for wl in WORKLOADS.values():
            doc = {size: {str(s): record_one(wl, s, size == "tiny", work, report)
                          for s in range(inputs.POOL)}
                   for size in ("full", "tiny")}
            with open(golden_path(wl.name), "w") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            print(f"recorded {wl.name}", flush=True)
        report += spot_checks(work)
    with open(GOLDEN / "spot_checks.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if all(e.get("ok", True) for e in report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
