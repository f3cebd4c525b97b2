"""Command-line front end.

Subcommands::

    scl-mon check --trace t.csv --spec f.scl [--evaluator E]
                  [--out DIR] [--format csv|json]
    scl-mon rho   --trace t.csv --spec f.scl [--time-grid G]
                  [--out DIR] [--format csv|json]
    scl-mon gen   --kind step-train|sine-quantized|glucose-like --seed S
                  --out t.csv [--noise-std N] [--duration D] [...]
    scl-mon exp noise-agreement --n N --seed S [--noise-std N] [--out FILE]
    scl-mon exp falsify --spec f.scl --budget B --seed S [--out FILE]
                  [--witness-out t.csv]

``rho`` samples each formula's robustness on a uniform time grid
(``--time-grid``, default: the narrowest window / 1000).  Every sample is
exact, a kernel-weighted quantile of the window's values, so the JSON
``robustness.tolerance`` is always 0.  The Boolean verdict behind the exit
code needs no step: the default evaluator is exact per event-aligned
stretch for every kernel (see :mod:`sclmon.monitor`).

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

import numpy as np

from .errors import SclError
from .experiments import falsify_demo, noise_agreement_experiment
from .formula import Formula
from .monitor import MonitorConfig, VerdictSignal, monitor
from .parser import parse_formula_file
from .robustness import RhoConfig, RobustnessTrace, rho_trace
from .signals import BooleanSignal, PiecewiseConstantSignal, boolean_not
from .traces import (
    generate_glucose_like,
    generate_sine_quantized,
    generate_step_train,
    read_trace_csv,
    write_trace_csv,
)


@dataclass
class RunConfig:
    """Validated knobs shared by the check/rho subcommands."""

    mode: str = "boolean"            # boolean | robustness
    evaluator: str = "efficient"
    time_grid: float | None = None
    output_format: str = "csv"
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("boolean", "robustness"):
            raise SclError(f"unknown mode {self.mode!r}")
        if self.output_format not in ("csv", "json"):
            raise SclError(f"unknown output format {self.output_format!r}")
        if self.time_grid is not None and self.time_grid <= 0:
            raise SclError("time_grid must be positive")

    def monitor_config(self) -> MonitorConfig:
        return MonitorConfig(evaluator=self.evaluator)

    def rho_config(self) -> RhoConfig:
        return RhoConfig(time_grid=self.time_grid)


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
    mon_cfg = cfg.monitor_config()
    rho_cfg = cfg.rho_config()

    def evaluate(index: int, source: str, f: Formula) -> FormulaResult:
        verdict = monitor(trace, f, mon_cfg)
        robustness = rho_trace(trace, f, rho_cfg) if cfg.mode == "robustness" else None
        return FormulaResult(
            index=index,
            source=source,
            satisfied=verdict.satisfied_at_zero,
            verdict=verdict if cfg.mode == "boolean" else None,
            robustness=robustness,
        )

    return [evaluate(index, source, f) for index, (_, source, f) in enumerate(formulas)]


def _verdict_segments(sig: BooleanSignal) -> list[tuple[float, float, bool]]:
    """Partition of the verdict domain into maximal constant-truth segments."""
    if sig.start == sig.end:
        return [(sig.start, sig.end, len(sig.starts) > 0)]
    gaps = boolean_not(sig)
    starts = np.concatenate((sig.starts, gaps.starts))
    order = np.argsort(starts, kind="stable")
    ends = np.concatenate((sig.ends, gaps.ends))[order]
    truth = np.arange(len(starts))[order] < len(sig.starts)
    return list(zip(starts[order].tolist(), ends.tolist(), truth.tolist()))


def _verdict_csv(result: FormulaResult) -> str:
    lines = ["start,end,truth"]
    for s, e, truth in _verdict_segments(result.verdict.signal):
        lines.append(f"{s!r},{e!r},{int(truth)}")
    return "\n".join(lines) + "\n"


def _rho_csv(result: FormulaResult) -> str:
    lines = ["time,rho"]
    for t, v in zip(result.robustness.times, result.robustness.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def _result_json(result: FormulaResult, cfg: RunConfig) -> dict:
    doc: dict = {
        "formula": result.source,
        "mode": cfg.mode,
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


def _emit_results(results: list[FormulaResult], cfg: RunConfig) -> None:
    for result in results:
        outputs: list[tuple[str, str]] = []
        if cfg.output_format == "json":
            name = f"formula_{result.index:03d}.json"
            outputs.append((name, json.dumps(_result_json(result, cfg), indent=2) + "\n"))
        else:
            if result.verdict is not None:
                outputs.append((f"verdict_{result.index:03d}.csv", _verdict_csv(result)))
            if result.robustness is not None:
                outputs.append((f"rho_{result.index:03d}.csv", _rho_csv(result)))
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
            for name, content in outputs:
                _write_atomic(os.path.join(cfg.out_dir, name), content)
        else:
            for name, content in outputs:
                sys.stdout.write(f"# {name} (formula: {result.source})\n")
                sys.stdout.write(content)
        status = "satisfied" if result.satisfied else "violated"
        print(f"formula {result.index}: {status} at t=0  [{result.source}]",
              file=sys.stderr)


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = RunConfig(mode="boolean", evaluator=args.evaluator,
                    output_format=args.format, out_dir=args.out)
    return _run_and_emit(args, cfg)


def _cmd_rho(args: argparse.Namespace) -> int:
    cfg = RunConfig(mode="robustness", time_grid=args.time_grid,
                    output_format=args.format, out_dir=args.out)
    return _run_and_emit(args, cfg)


def _run_and_emit(args: argparse.Namespace, cfg: RunConfig) -> int:
    trace = read_trace_csv(args.trace)
    with open(args.spec, "r") as fh:
        formulas = parse_formula_file(fh.read())
    if not formulas:
        raise SclError(f"no formulas in {args.spec}")
    results = run_monitor(trace, formulas, cfg)
    _emit_results(results, cfg)
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
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        _write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_exp_falsify(args: argparse.Namespace) -> int:
    with open(args.spec, "r") as fh:
        formulas = parse_formula_file(fh.read())
    if not formulas:
        raise SclError(f"no formulas in {args.spec}")
    _, _, formula = formulas[0]
    report = falsify_demo(formula, budget=args.budget, seed=args.seed)
    if args.witness_out:
        write_trace_csv(report.witness, args.witness_out)
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        _write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="scl-mon",
                                  description="Monitor signal convolution logic "
                                              "formulas over piecewise-constant traces")
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="Boolean verdicts for a spec file")
    check.add_argument("--trace", required=True)
    check.add_argument("--spec", required=True)
    check.add_argument("--evaluator", choices=("efficient", "oracle"),
                       default="efficient")
    check.add_argument("--out", default=None, help="output directory (default: stdout)")
    check.add_argument("--format", choices=("csv", "json"), default="csv")
    check.set_defaults(func=_cmd_check)

    rho_p = sub.add_parser("rho", help="robustness traces for a spec file")
    rho_p.add_argument("--trace", required=True)
    rho_p.add_argument("--spec", required=True)
    rho_p.add_argument("--time-grid", type=float, default=None)
    rho_p.add_argument("--out", default=None)
    rho_p.add_argument("--format", choices=("csv", "json"), default="csv")
    rho_p.set_defaults(func=_cmd_rho)

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
    except SclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
