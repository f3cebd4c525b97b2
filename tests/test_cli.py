"""CLI surface: subcommands, exit codes, output formats, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import sclmon
from sclmon.cli import main

VERDICT_JSON_SCHEMA = {
    "type": "object",
    "required": ["formula", "mode", "satisfied_at_zero"],
    "properties": {
        "formula": {"type": "string"},
        "mode": {"enum": ["boolean", "robustness"]},
        "satisfied_at_zero": {"type": "boolean"},
        "domain": {
            "type": "object",
            "required": ["start", "end"],
            "properties": {"start": {"type": "number"}, "end": {"type": "number"}},
        },
        "segments": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["start", "end", "truth"],
                "properties": {
                    "start": {"type": "number"},
                    "end": {"type": "number"},
                    "truth": {"type": "boolean"},
                },
            },
        },
        "crossings": {"type": "array", "items": {"type": "number"}},
        "robustness": {
            "type": "object",
            "required": ["tolerance", "times", "values"],
            "properties": {
                "tolerance": {"type": "number"},
                "times": {"type": "array", "items": {"type": "number"}},
                "values": {"type": "array", "items": {"type": "number"}},
            },
        },
    },
}


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


def make_trace(path, rows, variables=("G",)):
    lines = ["time," + ",".join(variables)]
    lines += [",".join(str(x) for x in row) for row in rows]
    return write(path, "\n".join(lines) + "\n")


@pytest.fixture()
def glucose_trace(workdir):
    # 2% of the day below 70 (29 of 1440 minutes), otherwise 110
    hours = 29.0 / 60.0
    return make_trace(workdir / "t.csv",
                      [(0.0, 110.0), (10.0, 60.0), (10.0 + hours, 110.0), (30.0, 110.0)])


class TestCheck:
    def test_tolerant_coverage_satisfied(self, workdir, glucose_trace):
        spec = write(workdir / "f.scl", "<flat[0,24], 0.95> (G >= 70)\n")
        assert main(["check", "--trace", glucose_trace, "--spec", spec,
                     "--out", str(workdir / "out")]) == 0

    def test_strict_always_violated(self, workdir, glucose_trace):
        spec = write(workdir / "f.scl", "G[0,24] (G >= 70)\n")
        assert main(["check", "--trace", glucose_trace, "--spec", spec,
                     "--out", str(workdir / "out")]) == 1

    def test_malformed_csv_exits_2_with_line(self, workdir, capsys):
        trace = write(workdir / "bad.csv", "time,G\n0,1\nnope,2\n")
        spec = write(workdir / "f.scl", "true\n")
        assert main(["check", "--trace", trace, "--spec", spec]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_repeated_variable_name_exits_2(self, workdir, capsys):
        # the second G column would satisfy the spec; reading only the first
        # one used to report a violation
        trace = write(workdir / "dup.csv", "time,G,G\n0,50,200\n1,50,200\n2,50,200\n")
        spec = write(workdir / "f.scl", "G >= 100\n")
        assert main(["check", "--trace", trace, "--spec", spec]) == 2
        assert "line 1: repeated variable name" in capsys.readouterr().err

    def test_horizon_shortfall_exits_2_naming_deficit(self, workdir, capsys):
        trace = make_trace(workdir / "t.csv", [(0.0, 100.0), (5.0, 100.0)])
        spec = write(workdir / "f.scl", "G[0,24] (G >= 70)\n")
        assert main(["check", "--trace", trace, "--spec", spec]) == 2
        assert "exceeds trace duration" in capsys.readouterr().err

    def test_bad_formula_exits_2_with_file_line(self, workdir, glucose_trace, capsys):
        spec = write(workdir / "f.scl", "true\n<flat[0,24] 0.95> (G >= 70)\n")
        assert main(["check", "--trace", glucose_trace, "--spec", spec]) == 2
        assert "formula file line 2" in capsys.readouterr().err

    def test_stdout_mode_prints_segments(self, workdir, glucose_trace, capsys):
        spec = write(workdir / "f.scl", "<flat[0,24], 0.95> (G >= 70)\n")
        assert main(["check", "--trace", glucose_trace, "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "start,end,truth" in out and "verdict_000.csv" in out

    def test_csv_output_partitions_domain(self, workdir, glucose_trace):
        spec = write(workdir / "f.scl", "<flat[0,24], 0.95> (G >= 70)\n")
        out = workdir / "out"
        main(["check", "--trace", glucose_trace, "--spec", spec, "--out", str(out)])
        with open(out / "verdict_000.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "no verdict rows"
        assert rows[0]["start"] == "0.0"
        assert float(rows[-1]["end"]) == pytest.approx(6.0)
        for a, b in zip(rows, rows[1:]):
            assert float(a["end"]) == float(b["start"])

    def test_json_output_validates(self, workdir, glucose_trace):
        spec = write(workdir / "f.scl",
                     "<flat[0,24], 0.95> (G >= 70)\nG[0,24] (G >= 70)\n")
        out = workdir / "out"
        main(["check", "--trace", glucose_trace, "--spec", spec,
              "--out", str(out), "--format", "json"])
        names = sorted(os.listdir(out))
        assert names == ["formula_000.json", "formula_001.json"]
        for name in names:
            doc = json.loads((out / name).read_text())
            jsonschema.validate(doc, VERDICT_JSON_SCHEMA)

    @pytest.mark.parametrize("command, option", [
        ("check", "--delta"), ("rho", "--delta"), ("rho", "--time-grid"),
        ("check", "--evaluator"),
    ], ids=["check", "rho", "rho-time-grid", "check-evaluator"])
    def test_delta_option_is_gone(self, workdir, glucose_trace, command, option, capsys):
        spec = write(workdir / "f.scl", "<flat[0,24], 0.95> (G >= 70)\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--trace", glucose_trace, "--spec", spec, option, "0.1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestRho:
    def test_rho_csv(self, workdir, glucose_trace):
        spec = write(workdir / "f.scl", "<flat[0,24], 0.95> (G >= 70)\n")
        out = workdir / "out"
        code = main(["rho", "--trace", glucose_trace, "--spec", spec, "--out", str(out)])
        assert code == 0
        with open(out / "rho_000.csv") as fh:
            rows = list(csv.DictReader(fh))
        # one row per breakpoint of the step function: every 24 / 1000
        assert [r["time"] for r in rows][:3] == ["0.0", "0.024", "0.048"]
        assert all(float(r["rho"]) > 0 for r in rows)

    def test_rho_json_validates(self, workdir, glucose_trace):
        spec = write(workdir / "f.scl", "G[0,24] (G >= 70)\n")
        out = workdir / "out"
        code = main(["rho", "--trace", glucose_trace, "--spec", spec,
                     "--out", str(out), "--format", "json"])
        assert code == 1  # violated at t=0
        doc = json.loads((out / "formula_000.json").read_text())
        jsonschema.validate(doc, VERDICT_JSON_SCHEMA)
        assert doc["robustness"]["values"][0] < 0
        assert doc["robustness"]["tolerance"] == 0.0  # exact quantiles


class TestGen:
    def test_deterministic_files(self, workdir):
        a, b = str(workdir / "a.csv"), str(workdir / "b.csv")
        for path in (a, b):
            assert main(["gen", "--kind", "glucose-like", "--seed", "11",
                         "--noise-std", "5", "--out", path]) == 0
        assert Path(a).read_text() == Path(b).read_text()

    def test_step_train_duty(self, workdir):
        path = str(workdir / "s.csv")
        main(["gen", "--kind", "step-train", "--period", "2", "--duty", "0.3",
              "--duration", "24", "--high", "200", "--low", "100",
              "--out", path])
        from sclmon import Atom, eval_atom, read_trace_csv
        trace = read_trace_csv(path)
        high = eval_atom(trace, Atom("v", ">=", 200.0))
        frac = sum(e - s for s, e in high.intervals) / 24.0
        assert frac == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("args", [
        ["--kind", "step-train", "--period", "nan"],
        ["--kind", "step-train", "--duration", "inf"],
        ["--kind", "glucose-like", "--noise-std", "nan"],
        ["--kind", "glucose-like", "--pitch", "nan"],
        ["--kind", "glucose-like", "--duration", "inf"],
        ["--kind", "sine-quantized", "--pitch", "nan"],
    ])
    def test_non_finite_argument_exits_2(self, workdir, capsys, args):
        path = workdir / "g.csv"
        assert main(["gen", *args, "--out", str(path)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not path.exists()


class TestExperiments:
    def test_noise_agreement_report(self, workdir, capsys):
        out = workdir / "report.json"
        assert main(["exp", "noise-agreement", "--n", "30", "--seed", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 30
        assert {"eventually_agreement_pct", "conv_agreement_pct"} <= set(doc)

    def test_noise_agreement_non_finite_noise_exits_2(self, capsys):
        assert main(["exp", "noise-agreement", "--n", "2", "--noise-std", "nan"]) == 2
        captured = capsys.readouterr()
        assert "noise_std must be finite" in captured.err
        assert captured.out == ""

    def test_falsify_report_and_witness(self, workdir):
        spec = write(workdir / "f.scl", "<flat[0,24], 0.95> (G >= 70)\n")
        out = workdir / "fals.json"
        witness = workdir / "witness.csv"
        assert main(["exp", "falsify", "--spec", spec, "--budget", "20",
                     "--seed", "0", "--out", str(out),
                     "--witness-out", str(witness)]) == 0
        doc = json.loads(out.read_text())
        assert doc["budget"] == 20
        assert len(doc["evaluations"]) == 20
        assert doc["min_robustness"] == min(e["robustness"] for e in doc["evaluations"])
        from sclmon import read_trace_csv
        assert read_trace_csv(str(witness)).variables == ("G",)


def test_import_loads_no_scipy():
    """``scl-mon`` starts on numpy alone; scipy would add about 0.35 s of import."""
    src = str(Path(sclmon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = ("import sclmon.cli, sys; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_check_and_rho_load_no_numpy_ma(workdir):
    """``np.unique`` and ``np.union1d`` import ``numpy.ma`` (about 13 ms) on
    first use; the monitor and robustness sort and compare instead."""
    trace = make_trace(workdir / "t.csv", [(float(t), 60.0 + 50.0 * (t % 3 == 0))
                                           for t in range(40)])
    spec = write(workdir / "f.scl", "\n".join([
        "<flat[0,2], 0.5> (G >= 70)", "G[0,3] (G >= 50) | F[0,1] (G <= 60)",
        "<gauss(0.5, 0.3)[0,1], 0.4> (G >= 100)", "<exp(-1)[0,2], 0.5>* (G < 70)"]) + "\n")
    src = str(Path(sclmon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = (f"import sys, sclmon.cli\n"
             f"for command in ('check', 'rho'):\n"
             f"    sclmon.cli.main([command, '--trace', {trace!r}, '--spec', {spec!r},\n"
             f"                     '--out', {str(workdir / 'out')!r}])\n"
             f"print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
