"""The repository's own tools run against the package sources."""

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
