"""The repository's own tools run against the package sources."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digest_covers_every_workload_and_seed(monkeypatch):
    # every line is "WORKLOAD seed=N ... SHA256"; an output the library
    # rejects would end in its error message instead
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), str(ROOT)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(re.search(r" [0-9a-f]{64}$", line) for line in lines), \
        [line for line in lines if not re.search(r" [0-9a-f]{64}$", line)][:5]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    seen = {tuple(line.split()[:2]) for line in lines}
    assert seen == {(name, f"seed={seed}") for name in workloads.WORKLOADS for seed in range(8)}


def test_poll_cost_counts_a_gaussian_stream():
    # the tool spies on monitor internals by name; a renamed internal
    # fails here instead of leaving the tool broken
    spec = importlib.util.spec_from_file_location("poll_cost", ROOT / "tools" / "poll_cost.py")
    poll_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(poll_cost)
    import sclmon
    mon = importlib.import_module("sclmon.monitor")
    grid_integrals, evaluate = mon._grid_integrals, mon.eval_conv_efficient
    trace = sclmon.generate_glucose_like(0, duration=4.5)
    f = sclmon.parse("<gauss(0.5,0.3)[0,1],0.5> (G >= 120)")
    (polls, grid, *_), _, busy = poll_cost.counted_polls(sclmon, mon, trace, f)
    assert polls > 0 and grid > 0
    # every counted poll falls in one class, and the stream has both
    assert len(busy) == polls and 0 < sum(busy) < polls
    assert mon._grid_integrals is grid_integrals and mon.eval_conv_efficient is evaluate


def test_stream_ab_compares_this_tree_with_itself():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "stream_ab.py"), str(ROOT),
                           str(ROOT), "--pairs", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"\s*0\s+parent\s+[0-9.]+\s+[0-9.]+", lines[2]), lines
    assert [line.split()[0] for line in lines[3:5]] == ["parent", "change"]
    assert re.fullmatch(r"change won [01] of 1 pairs", lines[-1]), lines
