"""Alternated A/B timing of the stream-day replay on two checkouts.

    python3 tools/stream_ab.py PARENT CHANGE [--pairs N]

``PARENT`` and ``CHANGE`` are checkouts whose ``src/sclmon`` is imported.  The
traces, the spec and the replay loop always come from the ``perfbench/`` next
to this script (``workloads.py``, ``specs/stream_day.scl`` and
``stream_replay.replay``, the loop the stream-day workload times), so both
sides run the same inputs through the same loop.  One run is a fresh
interpreter that replays the stream-day spec on pool seeds 0-7, push then
poll per sample, and reports the sum of the eight replays' ``wall_s``;
import and trace generation are not timed.  A pair is one run of each side,
and the side that runs first alternates from pair to pair.  The script
prints every pair, then each side's median and quartiles in milliseconds and
the number of pairs the change won (ties count for neither).  It writes no
file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import numpy as np

# the child: every stream-day replay of one checkout, summed, in seconds
CHILD = """
import sys
sys.dont_write_bytecode = True
src, perfbench = sys.argv[1], sys.argv[2]
sys.path[:0] = [src, perfbench]
from pathlib import Path
import sclmon, stream_replay, workloads
if Path(sclmon.__file__).resolve().parent != Path(src) / "sclmon":
    raise SystemExit(f"stream_ab: imported sclmon from {sclmon.__file__}, not {src}")
wl = workloads.WORKLOADS["stream-day"]
formulas = [f for _, _, f in
            sclmon.parse_formula_file((Path(perfbench) / "specs" / wl.spec).read_text())]
traces = [wl.make_trace(seed, False) for seed in map(int, sys.argv[3:])]
total = 0.0
for trace in traces:
    res = stream_replay.replay(formulas, trace.variables, trace.times.tolist(),
                               trace.values.tolist())
    total += res["wall_s"]
print(repr(total))
"""


def run(root: Path, perfbench: Path, seeds: range) -> float:
    """Seconds one fresh interpreter spends replaying every seed on ``root``."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), str(perfbench),
                           *map(str, seeds)], capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"stream_ab: replay on {root} failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def summary(name: str, ms: np.ndarray) -> str:
    q1, median, q3 = np.percentile(ms, [25, 50, 75])
    return f"{name:<7} median {median:8.1f} ms  quartiles {q1:8.1f} - {q3:8.1f} ms"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sys.dont_write_bytecode = True              # leave no __pycache__ in tools/
    from output_digest import PERFBENCH, SEEDS

    sides = (args.parent.resolve(), args.change.resolve())
    parent, change = [], []
    print(f"# stream-day replay, pool seeds {SEEDS.start}-{SEEDS.stop - 1}, "
          f"ms per run of all seeds")
    print(f"{'pair':>4} {'first':>6} {'parent_ms':>10} {'change_ms':>10}")
    for k in range(args.pairs):
        first = k % 2                         # 0: parent first, 1: change first
        took = {}
        for side in (first, 1 - first):
            took[side] = 1e3 * run(sides[side], PERFBENCH, SEEDS)
        parent.append(took[0])
        change.append(took[1])
        print(f"{k:4d} {('parent', 'change')[first]:>6} {took[0]:10.1f} {took[1]:10.1f}",
              flush=True)
    print(summary("parent", np.array(parent)))
    print(summary("change", np.array(change)))
    won = sum(c < p for p, c in zip(parent, change))
    print(f"change won {won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
