"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size for one second, untraced and traced, and
requires a correct result with no failed operation.  Then runs each
workload against a corrupted copy of its golden (formula 0's
``satisfied_at_zero`` flipped) and requires failed operations, so the gate is
known to bite.  Last, runs the benchmark from a copy holding only
``BENCHMARK.json`` and the benchmark directory, where it must exit with an
error and print no result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import HERE, ROOT, WORKLOADS, golden_path


def run(args: list[str], cwd: Path = ROOT, script: Path = HERE / "run.py") -> tuple[int, dict | None]:
    res = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    lines = res.stdout.strip().splitlines()
    try:
        return res.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return res.returncode, None


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        tmp = Path(tmp)
        for name in WORKLOADS:
            base = ["--workload", name, "--seed", "0", "--seconds", "1", "--tiny"]
            for trace in ("0", "1"):
                rc, res = run(base + ["--trace", trace])
                expect(rc == 0 and res is not None and res["correct"] and res["failed"] == 0
                       and res["attempted"] >= 1, f"{name} --trace {trace}: correct, error_rate 0")
            doc = json.loads(golden_path(name).read_text())
            gold = doc["tiny"]["0"]["formulas"][0]
            gold["satisfied_at_zero"] = not gold["satisfied_at_zero"]
            corrupted = tmp / f"{name}.json"
            corrupted.write_text(json.dumps(doc))
            rc, res = run(base + ["--trace", "0", "--golden", str(corrupted)])
            expect(rc == 0 and res is not None and not res["correct"]
                   and res["failed"] / res["attempted"] > 0,
                   f"{name} with a corrupted golden: error_rate > 0")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = run(["--workload", "stream-day", "--seed", "0", "--seconds", "1", "--trace", "0"],
                      cwd=bare, script=bare / HERE.name / "run.py")
        expect(rc != 0 and res is None, "without the program's source: error exit, no result")
    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
