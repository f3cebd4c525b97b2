"""Print one sha256 line per benchmark output, to compare two checkouts bit for bit.

    python3 tools/output_digest.py ROOT > digest.txt

``ROOT`` is a checkout whose ``src/sclmon`` is imported.  The traces and specs
always come from the ``perfbench/`` next to this script (``workloads.py``,
``inputs.py``, ``specs/``), so two runs on different checkouts read the same
inputs; ``diff`` of their outputs then lists every output that moved.  For each
workload, pool seed 0-7 and formula it prints
``WORKLOAD seed=N formula=K OUTPUT SHA256``, where OUTPUT is

* ``monitor``: the ``monitor()`` verdict's domain and interval bounds and its
  crossings (check and stream specs);
* ``rho_trace``: the ``rho_trace`` times and values (rho spec, and the
  check-steps and stream specs, whose exponential windows, ``F`` and dense
  square-wave ties the rho spec lacks);
* ``stream``: ``StreamingMonitor.resolved_signal()`` after pushing and polling
  the trace one sample at a time, then ``finish`` and a last poll (stream
  spec);
* ``stream7``: the same, polled after every 7th sample only, so each poll
  restarts from further back than a per-sample poll does.

Some workloads get formulas of their own after the spec's (``EXTRA_FORMULAS``):
the nested ``G[0,2] (<flat[0,1], 0.5> (G >= 100))`` on rho-3d and stream-day,
so a coverage node under another and a nested stream's end are digested too,
windows at a threshold of 0 or 1 of every kernel shape, whose verdict and
robustness are decided by the window's edges alone, on check-steps, rho-3d and
stream-day, and a Gaussian window at 0 < p < 1 on check-steps, where a stretch
holds many edges and the H' split descends several levels, and on stream-day,
where it is streamed.

Every float is hashed as its exact little-endian float64 bytes.  An output
that the library rejects (an ``SclError``) prints ``error TYPE: MESSAGE`` in
place of its hash.

For the check and rho workloads it then prints, per pool seed,
``WORKLOAD seed=N cli-FORMAT SHA256``: the hash of the stdout, the stderr and
the exit code of ``sclmon.cli.main([KIND, "--trace", CSV, "--spec", SPEC,
"--format", FORMAT])``, for FORMAT ``json`` and ``csv``, so the bytes the
command prints are compared too.  ``main`` is the CLI's stable entry point, so
one copy of this script digests both checkouts.  The trace CSVs are written to
a temporary directory outside both trees, which is removed on exit; the script
writes no other file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
SEEDS = range(8)


def sha256_of(chunks) -> str:
    """sha256 of byte strings, each preceded by its length."""
    h = hashlib.sha256()
    for data in chunks:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def digest(*parts) -> str:
    return sha256_of(np.ascontiguousarray(np.asarray(part, dtype="<f8")).tobytes()
                     for part in parts)


def text_digest(*parts: str) -> str:
    return sha256_of(part.encode() for part in parts)


def cli_digest(sclmon_cli, kind: str, trace_path: Path, spec_path: Path, fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sclmon_cli.main([kind, "--trace", str(trace_path), "--spec", str(spec_path),
                                "--format", fmt])
    return text_digest(out.getvalue(), err.getvalue(), str(code))


def signal_parts(sig) -> tuple:
    return ([sig.start, sig.end], sig.starts, sig.ends)


def monitor_digest(sclmon, trace, f) -> str:
    verdict = sclmon.monitor(trace, f)
    return digest(*signal_parts(verdict.signal), verdict.crossings)


def rho_trace_digest(sclmon, trace, f) -> str:
    rt = sclmon.rho_trace(trace, f)
    return digest(rt.times, rt.values)


def stream_digest(sclmon, trace, f, every=1) -> str:
    sm = sclmon.StreamingMonitor(f, trace.variables)
    for i, (t, row) in enumerate(zip(trace.times.tolist(), trace.values.tolist()), 1):
        sm.push(t, row)
        if i % every == 0:
            sm.poll()
    sm.finish()
    sm.poll()
    resolved = sm.resolved_signal()
    return "none" if resolved is None else digest(*signal_parts(resolved))


def stream7_digest(sclmon, trace, f) -> str:
    return stream_digest(sclmon, trace, f, every=7)


OUTPUTS = {
    "check": (("monitor", monitor_digest),),
    "rho": (("rho_trace", rho_trace_digest),),
    "stream": (("monitor", monitor_digest), ("stream", stream_digest),
               ("stream7", stream7_digest)),
}
EXTRA_OUTPUTS = {"check-steps": (("rho_trace", rho_trace_digest),),
                 "stream-day": (("rho_trace", rho_trace_digest),)}
NESTED = "G[0,2] (<flat[0,1], 0.5> (G >= 100))"
# a threshold of 0 or 1 on each kernel shape, through the dual too
FULL_OR_EMPTY = ("<exp(-1)[0,2], 1> (G >= 70)", "<gauss(1,0.4)[0,2], 1>* (G >= 180)",
                 "G[0,2] (<flat[0,1], 1> (G >= 100))")
EXTRA_FORMULAS = {
    "check-steps": ("<exp(2)[0,1], 1> (v >= 0.5)", "<gauss(0.5,0.2)[0,1], 1>* (v >= 0.5)",
                    "<flat[0,0.2], 0> (v >= 0.5)", "<gauss(0.5,0.3)[0,1], 0.3> (v >= 0.5)"),
    "rho-3d": (NESTED, *FULL_OR_EMPTY),
    "stream-day": (NESTED, *FULL_OR_EMPTY, "<gauss(0.5,0.3)[0,1], 0.5> (G >= 120)"),
}
CLI_FORMATS = ("json", "csv")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True              # leave no __pycache__ in either tree
    import sclmon
    import sclmon.cli
    import workloads

    if Path(sclmon.__file__).resolve().parent != src / "sclmon":
        raise SystemExit(f"output_digest: imported sclmon from {sclmon.__file__}, not {src}")
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for name, wl in workloads.WORKLOADS.items():
            spec_path = PERFBENCH / "specs" / wl.spec
            formulas = [f for _, _, f in sclmon.parse_formula_file(spec_path.read_text())]
            formulas += [sclmon.parse(text) for text in EXTRA_FORMULAS.get(name, ())]
            for seed in SEEDS:
                text = wl.make_trace(seed, False).csv_text()
                trace = sclmon.read_trace_csv(io.StringIO(text))
                for k, f in enumerate(formulas):
                    for output, run in OUTPUTS[wl.kind] + EXTRA_OUTPUTS.get(name, ()):
                        try:
                            line = run(sclmon, trace, f)
                        except sclmon.SclError as exc:   # a rejection is an output too
                            line = f"error {type(exc).__name__}: {exc}"
                        print(f"{name} seed={seed} formula={k} {output} {line}", flush=True)
                if wl.kind in ("check", "rho"):
                    trace_path.write_text(text)
                    for fmt in CLI_FORMATS:
                        line = cli_digest(sclmon.cli, wl.kind, trace_path, spec_path, fmt)
                        print(f"{name} seed={seed} cli-{fmt} {line}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
