"""Workload definitions, input preparation and one operation of each kind.

A CLI operation spawns ``scl-mon check|rho --format json`` on the workload's
trace and spec; a stream operation spawns ``stream_replay.py``.  Either way
the child is timed from spawn to exit and its peak RSS comes from
``os.wait4``.  Children run one at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"
GOLDEN = HERE / "golden"

# What a user's shell runs for ``scl-mon`` (the console-script entry point).
CLI_ENTRY = "import sys; from sclmon.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 60.0          # a child still running then is killed and its operation fails


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                        # "check" | "rho" | "stream"
    spec: str
    make_trace: Callable[[int, bool], inputs.Trace]     # (pool seed, tiny)

    @property
    def entry_module(self) -> str:
        return "sclmon" if self.kind == "stream" else "sclmon.cli"


WORKLOADS = {w.name: w for w in (
    Workload("check-week", "check", "check_week.scl",
             lambda seed, tiny: inputs.glucose_trace(seed, 26.0 if tiny else 48.0, insulin=True)),
    Workload("check-steps", "check", "check_steps.scl",
             lambda seed, tiny: inputs.square_wave(seed, 6.0 if tiny else 10.0)),
    Workload("rho-3d", "rho", "rho_3d.scl",
             lambda seed, tiny: inputs.glucose_trace(seed, 25.0 if tiny else 36.0)),
    Workload("stream-day", "stream", "stream_day.scl",
             lambda seed, tiny: inputs.glucose_trace(seed, 3.0 if tiny else 24.5)),
)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_source() -> None:
    """The program is run from this checkout's ``src/``; nothing else will do."""
    if not (SRC / "sclmon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sclmon source at {SRC}")


@dataclass
class Prepared:
    workload: Workload
    pool_seed: int
    trace: Path
    spec: Path
    input_entry: dict
    gold: list[dict]


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def load_golden(path: Path, tiny: bool, pool_seed: int) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["tiny" if tiny else "full"][str(pool_seed)]


def prepare(workload: Workload, seed: int, tiny: bool, work: Path,
            golden_file: Path | None = None, with_golden: bool = True) -> Prepared:
    """Write the seeded input into ``work``; load its golden and check that
    the input is byte-identical to the one the golden was recorded on."""
    pool_seed = seed % inputs.POOL
    trace_path = work / f"{workload.name}-{pool_seed}.csv"
    entry = inputs.write_csv(workload.make_trace(pool_seed, tiny), trace_path)
    gold: list[dict] = []
    if with_golden:
        recorded = load_golden(golden_file or golden_path(workload.name), tiny, pool_seed)
        if recorded["input"]["sha256"] != entry["sha256"]:
            raise SystemExit(f"perfbench: {workload.name} input for seed {pool_seed} "
                             f"differs from the one its golden was recorded on")
        gold = recorded["formulas"]
    return Prepared(workload, pool_seed, trace_path, SPECS / workload.spec, entry, gold)


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float
    returncode: int
    output: object                   # list of formula docs (CLI) or replay dict (stream)
    stderr: str


def _spawn(cmd: list[str], stderr_path: Path) -> tuple[float, float, int]:
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_op(p: Prepared, work: Path) -> OpResult:
    """One operation in a child process; outputs are read back, not checked."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    stderr_path = work / "stderr.txt"
    if p.workload.kind == "stream":
        result_path = out / "replay.json"
        cmd = [sys.executable, str(HERE / "stream_replay.py"), str(p.trace), str(p.spec),
               str(result_path)]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, p.workload.kind, "--trace", str(p.trace),
               "--spec", str(p.spec), "--format", "json", "--out", str(out)]
    wall, rss, rc = _spawn(cmd, stderr_path)
    stderr = stderr_path.read_text()
    output: object = None
    if p.workload.kind == "stream":
        if rc == 0:
            output = json.loads(result_path.read_text())
            wall = output["wall_s"]
    else:
        output = [json.loads(f.read_text()) for f in sorted(out.glob("formula_*.json"))]
    return OpResult(wall, rss, rc, output, stderr)


def time_calibration(repeats: int) -> list[float]:
    """Wall times of ``calibrate.py`` from spawn to exit."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "calibrate.py")], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def time_import(module: str, repeats: int) -> list[float]:
    """Wall times of a fresh interpreter importing ``module`` and exiting."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc = subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"perfbench: 'import {module}' failed with exit code {rc}")
    return times
