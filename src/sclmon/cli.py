"""Command-line front end.

Subcommands::

    scl-mon check --trace t.csv --spec f.scl [--out DIR] [--format csv|json]
    scl-mon rho   --trace t.csv --spec f.scl [--out DIR] [--format csv|json]
    scl-mon gen   --kind step-train|sine-quantized|glucose-like --seed S
                  --out t.csv [--noise-std N] [--duration D] [...]
    scl-mon exp noise-agreement --n N --seed S [--noise-std N] [--out FILE]
    scl-mon exp falsify --spec f.scl --budget B --seed S [--out FILE]
                  [--witness-out t.csv]

``rho`` writes each formula's robustness as its step function: one row per
breakpoint, whose value holds until the next row, and a last row where the
Boolean verdict ends.  A coverage node breaks every window width / 1000,
an atom at the trace's own samples, and a Boolean combination at the union of
its operands' breaks, where each operand is evaluated exactly.  Each row is
the robustness at its own time: at a coverage node, the highest of the
window's values whose kernel-weighted coverage reaches the threshold, with
no tolerance, so the JSON ``robustness.tolerance`` is always 0.  A coverage
node nested under another holds its child between the child's own samples.
The Boolean verdict behind the exit code needs no step: its evaluator is
exact per event-aligned stretch for every kernel (see :mod:`sclmon.monitor`).

Exit codes: 0 when every formula is satisfied at time 0, 1 when any is
violated, 2 on error.  Time numbers are unitless and must match the trace;
outputs are written atomically per formula.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import SclError
from .experiments import falsify_demo, noise_agreement_experiment
from .formula import Formula
from .monitor import VerdictSignal, monitor
from .parser import parse_formula_file
from .robustness import RobustnessTrace, rho_trace
from .signals import BooleanSignal, PiecewiseConstantSignal
from .traces import (
    generate_glucose_like,
    generate_sine_quantized,
    generate_step_train,
    read_trace_csv,
    write_trace_csv,
)


@dataclass
class RunConfig:
    """What :func:`run_monitor` computes: Boolean verdicts or robustness."""

    mode: str = "boolean"            # boolean | robustness

    def __post_init__(self) -> None:
        if self.mode not in ("boolean", "robustness"):
            raise SclError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class FormulaResult:
    index: int
    source: str
    satisfied: bool
    verdict: VerdictSignal | None
    robustness: RobustnessTrace | None


def run_monitor(trace: PiecewiseConstantSignal, formulas: list[tuple[int, str, Formula]],
                cfg: RunConfig) -> list[FormulaResult]:
    """Evaluate every formula against the trace, in order."""
    def evaluate(index: int, source: str, f: Formula) -> FormulaResult:
        verdict = monitor(trace, f)
        robustness = rho_trace(trace, f) if cfg.mode == "robustness" else None
        return FormulaResult(
            index=index,
            source=source,
            satisfied=verdict.satisfied_at_zero,
            verdict=verdict if cfg.mode == "boolean" else None,
            robustness=robustness,
        )

    return [evaluate(index, source, f) for index, (_, source, f) in enumerate(formulas)]


def _verdict_segments(sig: BooleanSignal) -> list[tuple[float, float, bool]]:
    """Partition of the verdict domain into maximal constant-truth segments.

    The bounds ``[start, s0, e0, s1, ..., end]`` alternate a false gap and a
    true interval; only the gap at either end can be empty.
    """
    if sig.start == sig.end:
        return [(sig.start, sig.end, len(sig.starts) > 0)]
    bounds = np.concatenate(([sig.start], np.column_stack((sig.starts, sig.ends)).ravel(),
                             [sig.end]))
    kept = np.flatnonzero(bounds[1:] > bounds[:-1])
    return list(zip(bounds[kept].tolist(), bounds[kept + 1].tolist(), (kept % 2 == 1).tolist()))


def _csv(header: str, rows: Iterable[tuple]) -> str:
    """The header, then one line per row of ``repr``'d values."""
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"


def _result_json(result: FormulaResult, mode: str) -> dict:
    doc: dict = {
        "formula": result.source,
        "mode": mode,
        "satisfied_at_zero": result.satisfied,
    }
    if result.verdict is not None:
        doc["domain"] = {"start": result.verdict.signal.start,
                         "end": result.verdict.signal.end}
        doc["segments"] = [
            {"start": s, "end": e, "truth": truth}
            for s, e, truth in _verdict_segments(result.verdict.signal)
        ]
        doc["crossings"] = list(result.verdict.crossings)
    if result.robustness is not None:
        doc["robustness"] = {
            "tolerance": 0.0,  # robustness values are exact quantiles
            "times": [float(t) for t in result.robustness.times],
            "values": [float(v) for v in result.robustness.values],
        }
    return doc


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scl-mon-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(doc: dict, path: str | None) -> None:
    """``doc`` as indented JSON, written atomically to ``path`` or to stdout."""
    payload = json.dumps(doc, indent=2) + "\n"
    if path:
        _write_atomic(path, payload)
    else:
        sys.stdout.write(payload)


def _emit_results(results: list[FormulaResult], mode: str, output_format: str,
                  out_dir: str | None) -> None:
    for result in results:
        outputs: list[tuple[str, str]] = []
        if output_format == "json":
            name = f"formula_{result.index:03d}.json"
            outputs.append((name, json.dumps(_result_json(result, mode), indent=2) + "\n"))
        else:
            if result.verdict is not None:
                rows = [(s, e, int(t)) for s, e, t in _verdict_segments(result.verdict.signal)]
                outputs.append((f"verdict_{result.index:03d}.csv", _csv("start,end,truth", rows)))
            if result.robustness is not None:
                rows = zip(result.robustness.times.tolist(), result.robustness.values.tolist())
                outputs.append((f"rho_{result.index:03d}.csv", _csv("time,rho", rows)))
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            for name, content in outputs:
                _write_atomic(os.path.join(out_dir, name), content)
        else:
            for name, content in outputs:
                sys.stdout.write(f"# {name} (formula: {result.source})\n")
                sys.stdout.write(content)
        status = "satisfied" if result.satisfied else "violated"
        print(f"formula {result.index}: {status} at t=0  [{result.source}]",
              file=sys.stderr)


def _read_spec(path: str) -> list[tuple[int, str, Formula]]:
    with open(path, "r") as fh:
        formulas = parse_formula_file(fh.read())
    if not formulas:
        raise SclError(f"no formulas in {path}")
    return formulas


def _cmd_monitor(args: argparse.Namespace) -> int:
    """``check`` and ``rho``: they differ only in ``args.mode``."""
    trace = read_trace_csv(args.trace)
    results = run_monitor(trace, _read_spec(args.spec), RunConfig(mode=args.mode))
    _emit_results(results, args.mode, args.format, args.out)
    return 0 if all(r.satisfied for r in results) else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "step-train":
        trace = generate_step_train(args.period, args.duty, args.duration,
                                    low=args.low, high=args.high)
    elif args.kind == "sine-quantized":
        trace = generate_sine_quantized(args.period, args.amplitude, args.offset,
                                        args.pitch, args.duration)
    else:
        trace = generate_glucose_like(args.seed, duration=args.duration,
                                      pitch=args.pitch, noise_std=args.noise_std)
    write_trace_csv(trace, args.out)
    print(f"wrote {args.out} ({len(trace.times)} samples, duration {trace.duration})",
          file=sys.stderr)
    return 0


def _cmd_exp_noise(args: argparse.Namespace) -> int:
    report = noise_agreement_experiment(trials=args.n, seed=args.seed,
                                        noise_std=args.noise_std)
    _write_json(report.to_dict(), args.out)
    return 0


def _cmd_exp_falsify(args: argparse.Namespace) -> int:
    _, _, formula = _read_spec(args.spec)[0]
    report = falsify_demo(formula, budget=args.budget, seed=args.seed)
    if args.witness_out:
        write_trace_csv(report.witness, args.witness_out)
    _write_json(report.to_dict(), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="scl-mon",
                                  description="Monitor signal convolution logic "
                                              "formulas over piecewise-constant traces")
    sub = top.add_subparsers(dest="command", required=True)

    for name, mode, text in (("check", "boolean", "Boolean verdicts for a spec file"),
                             ("rho", "robustness", "robustness traces for a spec file")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--trace", required=True)
        cmd.add_argument("--spec", required=True)
        cmd.add_argument("--out", default=None, help="output directory (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.set_defaults(func=_cmd_monitor, mode=mode)

    gen = sub.add_parser("gen", help="generate a synthetic trace CSV")
    gen.add_argument("--kind", choices=("step-train", "sine-quantized", "glucose-like"),
                     required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise-std", type=float, default=0.0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--duration", type=float, default=24.5)
    gen.add_argument("--period", type=float, default=2.0)
    gen.add_argument("--duty", type=float, default=0.3)
    gen.add_argument("--low", type=float, default=0.0)
    gen.add_argument("--high", type=float, default=1.0)
    gen.add_argument("--amplitude", type=float, default=1.0)
    gen.add_argument("--offset", type=float, default=0.0)
    gen.add_argument("--pitch", type=float, default=1.0 / 12.0)
    gen.set_defaults(func=_cmd_gen)

    exp = sub.add_parser("exp", help="built-in experiments on synthetic traces")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    noise = exp_sub.add_parser("noise-agreement",
                               help="noisy-verdict agreement percentages")
    noise.add_argument("--n", type=int, default=500)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--noise-std", type=float, default=5.0)
    noise.add_argument("--out", default=None)
    noise.set_defaults(func=_cmd_exp_noise)

    falsify = exp_sub.add_parser("falsify",
                                 help="random-search robustness minimization")
    falsify.add_argument("--spec", required=True)
    falsify.add_argument("--budget", type=int, required=True)
    falsify.add_argument("--seed", type=int, default=0)
    falsify.add_argument("--out", default=None)
    falsify.add_argument("--witness-out", default=None)
    falsify.set_defaults(func=_cmd_exp_falsify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SclError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
