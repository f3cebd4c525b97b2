"""Trace CSV round trips and synthetic generators."""

import io

import numpy as np
import pytest

from sclmon import (
    Atom,
    PiecewiseConstantSignal,
    SclError,
    TraceError,
    eval_atom,
    generate_glucose_like,
    generate_sine_quantized,
    generate_step_train,
    read_trace_csv,
    trace_to_csv,
)


class TestCsv:
    @pytest.mark.parametrize("trace", [
        generate_glucose_like(3),
        generate_step_train(period=2.0, duty=0.3, duration=24.0),
        generate_sine_quantized(period=4.0, amplitude=1.5, offset=0.5,
                                pitch=0.25, duration=10.0),
    ], ids=["glucose", "step-train", "sine"])
    def test_round_trip_identity(self, trace):
        text = trace_to_csv(trace)
        back = read_trace_csv(io.StringIO(text))
        assert back.variables == trace.variables
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.values, trace.values)
        assert back.duration == trace.duration
        assert trace_to_csv(back) == text

    def test_header_checked(self):
        with pytest.raises(TraceError, match="header"):
            read_trace_csv(io.StringIO("t,G\n0,1\n"))

    def test_duplicate_timestamp_rejected_with_line(self):
        bad = "time,G\n0,1\n1,2\n1,3\n"
        with pytest.raises(TraceError, match="line 4"):
            read_trace_csv(io.StringIO(bad))

    def test_bad_number_reported_with_line(self):
        bad = "time,G\n0,1\nx,2\n"
        with pytest.raises(TraceError, match="line 3"):
            read_trace_csv(io.StringIO(bad))

    def test_descending_times_rejected(self):
        bad = "time,G\n0,1\n2,2\n1,3\n"
        with pytest.raises(TraceError, match="ascend"):
            read_trace_csv(io.StringIO(bad))

    @pytest.mark.parametrize("row", ["1,nan", "1,inf", "1,-inf", "inf,3", "nan,3"])
    def test_non_finite_entry_reported_with_line(self, row):
        with pytest.raises(TraceError, match="line 3: non-finite"):
            read_trace_csv(io.StringIO(f"time,G\n0,1\n{row}\n2,2\n"))

    def test_repeated_variable_name_rejected_in_header(self):
        with pytest.raises(TraceError, match="line 1: repeated variable name"):
            read_trace_csv(io.StringIO("time,G,G\n0,50,200\n1,50,200\n"))

    def test_repeated_variable_name_rejected_in_memory(self):
        with pytest.raises(TraceError, match="repeated variable name"):
            PiecewiseConstantSignal(("G", "G"), np.array([0.0]),
                                    np.array([[50.0, 200.0]]), 1.0)


class TestStepTrain:
    def test_duty_fraction_is_exact(self):
        trace = generate_step_train(period=2.0, duty=0.3, duration=24.0,
                                    low=0.0, high=1.0)
        sig = eval_atom(trace, Atom("v", ">=", 1.0))
        assert sum(e - s for s, e in sig.intervals) == pytest.approx(0.3 * 24.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(SclError):
            generate_step_train(period=2.0, duty=1.5, duration=10.0)

    @pytest.mark.parametrize("arg", ["period", "duty", "duration", "low", "high"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_argument_rejected(self, arg, bad):
        # duration=inf would otherwise grow the sample lists without end
        args = dict(period=2.0, duty=0.3, duration=10.0, low=0.0, high=1.0)
        with pytest.raises(SclError, match=f"{arg} must be finite"):
            generate_step_train(**{**args, arg: bad})


class TestSine:
    def test_quantized_values_on_grid(self):
        trace = generate_sine_quantized(period=4.0, amplitude=2.0, offset=1.0,
                                        pitch=0.25, duration=8.0)
        assert trace.times[0] == 0.0 and trace.times[-1] == 8.0
        assert np.all(np.abs(trace.values[:, 0] - 1.0) <= 2.0 + 1e-12)

    def test_pitch_not_dividing_the_duration_ends_at_the_duration(self):
        trace = generate_sine_quantized(period=4.0, amplitude=2.0, offset=1.0,
                                        pitch=0.3, duration=1.0)
        assert np.array_equal(trace.times, np.append(0.3 * np.arange(4), 1.0))

    @pytest.mark.parametrize("arg", ["period", "amplitude", "offset", "pitch", "duration"])
    def test_non_finite_argument_rejected(self, arg):
        args = dict(period=4.0, amplitude=2.0, offset=1.0, pitch=0.25, duration=8.0)
        with pytest.raises(SclError, match=f"{arg} must be finite"):
            generate_sine_quantized(**{**args, arg: float("nan")})


class TestGlucoseLike:
    def test_same_seed_byte_identical(self):
        a = trace_to_csv(generate_glucose_like(42, noise_std=5.0))
        b = trace_to_csv(generate_glucose_like(42, noise_std=5.0))
        assert a == b

    @pytest.mark.parametrize("arg,bad", [("noise_std", float("nan")),
                                         ("pitch", float("nan")),
                                         ("duration", float("inf"))])
    def test_non_finite_argument_rejected(self, arg, bad):
        with pytest.raises(SclError, match=f"{arg} must be finite"):
            generate_glucose_like(3, **{arg: bad})

    def test_different_seed_differs(self):
        a = trace_to_csv(generate_glucose_like(1))
        b = trace_to_csv(generate_glucose_like(2))
        assert a != b

    def test_noise_is_additive_with_expected_std(self):
        clean = generate_glucose_like(5, noise_std=0.0)
        noisy = generate_glucose_like(5, noise_std=5.0)
        diff = noisy.values - clean.values
        assert float(np.std(diff)) == pytest.approx(5.0, abs=0.5)
        assert float(np.mean(diff)) == pytest.approx(0.0, abs=1.0)

    def test_dip_plateau_is_flat_and_long(self):
        for seed in range(10):
            trace = generate_glucose_like(seed)
            v = trace.values[:, 0]
            floor = float(v.min())
            plateau = np.isclose(v, floor).sum() * (trace.times[1] - trace.times[0])
            assert plateau >= 0.75  # hours at the exact minimum
