"""Trace serialization and synthetic trace generators.

CSV format: header ``time,var1[,var2,...]`` with distinct variable names,
rows ascending in time, finite decimal values; the value of a row holds from
its timestamp until the next row, and the last row marks the end of the
trace.  Duplicate timestamps are rejected.

Generators are deterministic for a fixed seed; the glucose-like generator
produces a daily profile with meal bumps and one flat-bottomed low excursion
whose plateau is held long enough that fraction-of-time and existential
low-glucose checks coincide on the noise-free trace.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import SclError, TraceError, require_finite
from .signals import PiecewiseConstantSignal, check_unique_variables


def read_trace_csv(path_or_file) -> PiecewiseConstantSignal:
    """Load a trace; raises :class:`TraceError` with the offending line."""
    if hasattr(path_or_file, "read"):
        return _read_trace(path_or_file)
    with open(path_or_file, "r", newline="") as fh:
        return _read_trace(fh)


def _read_trace(fh) -> PiecewiseConstantSignal:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceError("empty trace file") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "time":
        raise TraceError(
            f"header must be 'time,var1[,var2,...]', got {','.join(header)!r}", line=1
        )
    variables = tuple(header[1:])
    check_unique_variables(variables, line=1)
    times: list[float] = []
    values: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise TraceError(
                f"expected {len(header)} fields, got {len(row)}", line=lineno
            )
        try:
            t = float(row[0])
            vals = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise TraceError(f"bad number: {exc}", line=lineno) from None
        if not math.isfinite(t) or not all(map(math.isfinite, vals)):
            raise TraceError(f"non-finite entry in row {row}", line=lineno)
        if times:
            if t == times[-1]:
                raise TraceError(f"duplicate timestamp {t!r}", line=lineno)
            if t < times[-1]:
                raise TraceError(
                    f"timestamps must ascend: {t!r} after {times[-1]!r}", line=lineno
                )
        times.append(t)
        values.append(vals)
    if not times:
        raise TraceError("trace has no samples")
    return PiecewiseConstantSignal(variables, np.array(times), np.array(values), times[-1])


def trace_to_csv(trace: PiecewiseConstantSignal) -> str:
    """Serialize; a terminal row at ``duration`` is added when missing."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", *trace.variables])
    for t, row in zip(trace.times, trace.values):
        writer.writerow([repr(float(t)), *(repr(float(v)) for v in row)])
    if trace.times[-1] < trace.duration:
        writer.writerow([repr(float(trace.duration)),
                         *(repr(float(v)) for v in trace.values[-1])])
    return buf.getvalue()


def write_trace_csv(trace: PiecewiseConstantSignal, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(trace_to_csv(trace))


def _uniform_grid(duration: float, pitch: float) -> np.ndarray:
    """0, pitch, 2*pitch, ... with the exact duration as final breakpoint."""
    n = max(int(round(duration / pitch)), 0)
    if n and abs(n * pitch - duration) <= 1e-9 * max(1.0, duration):
        ts = pitch * np.arange(n + 1)
        ts[-1] = duration
        return ts
    n = int(math.floor(duration / pitch))
    ts = pitch * np.arange(n + 1)
    if ts[-1] < duration - 1e-12 * max(1.0, duration):
        return np.append(ts, duration)
    ts[-1] = min(ts[-1], duration)
    return ts


def generate_step_train(period: float, duty: float, duration: float,
                        low: float = 0.0, high: float = 1.0,
                        variable: str = "v") -> PiecewiseConstantSignal:
    """Square wave: ``high`` for the first ``duty`` fraction of each period."""
    require_finite("step train", period=period, duty=duty, duration=duration,
                   low=low, high=high)
    if period <= 0 or not (0.0 < duty < 1.0) or duration <= 0:
        raise SclError("step train needs period > 0, 0 < duty < 1, duration > 0")
    times = [0.0]
    values = [[high]]
    t = 0.0
    while t < duration:
        t_high_end = t + duty * period
        if t_high_end < duration:
            times.append(t_high_end)
            values.append([low])
        t += period
        if t < duration:
            times.append(t)
            values.append([high])
    if times[-1] < duration:
        times.append(duration)
        values.append(values[-1][:])
    return PiecewiseConstantSignal((variable,), np.array(times), np.array(values), duration)


def generate_sine_quantized(period: float, amplitude: float, offset: float,
                            pitch: float, duration: float,
                            variable: str = "v") -> PiecewiseConstantSignal:
    """Sine wave sampled-and-held on a uniform grid."""
    require_finite("sine generator", period=period, amplitude=amplitude, offset=offset,
                   pitch=pitch, duration=duration)
    if period <= 0 or pitch <= 0 or duration <= 0:
        raise SclError("sine generator needs positive period, pitch and duration")
    ts = _uniform_grid(duration, pitch)
    vals = offset + amplitude * np.sin(2.0 * math.pi * ts / period)
    return PiecewiseConstantSignal((variable,), ts, vals.reshape(-1, 1), duration)


@dataclass(frozen=True)
class GlucoseParams:
    """Shape parameters of the synthetic daily glucose profile."""

    baseline: float = 115.0
    meal_times: tuple[float, ...] = (7.0, 12.5, 19.0)
    meal_amplitudes: tuple[float, ...] = (55.0, 70.0, 60.0)
    meal_spread: float = 1.1
    dip_start: float = 14.0
    dip_floor: float = 72.0
    dip_length: float = 1.1
    dip_ramp: float = 0.3

    @staticmethod
    def sample(rng: np.random.Generator) -> "GlucoseParams":
        return GlucoseParams(
            baseline=float(rng.uniform(108.0, 124.0)),
            meal_times=tuple(float(x) for x in
                             rng.uniform(-0.8, 0.8, 3) + np.array([7.0, 12.5, 19.0])),
            meal_amplitudes=tuple(float(x) for x in rng.uniform(35.0, 90.0, 3)),
            meal_spread=float(rng.uniform(0.8, 1.4)),
            dip_start=float(rng.uniform(3.0, 20.0)),
            dip_floor=float(rng.uniform(58.0, 88.0)),
            dip_length=float(rng.uniform(0.8, 1.5)),
            dip_ramp=float(rng.uniform(0.2, 0.4)),
        )


def generate_glucose_like(seed: int, duration: float = 24.5, pitch: float = 1.0 / 12.0,
                          noise_std: float = 0.0,
                          params: GlucoseParams | None = None,
                          variable: str = "G") -> PiecewiseConstantSignal:
    """Daily glucose-style profile; same seed and noise_std=0 share the base curve."""
    require_finite("glucose generator", duration=duration, pitch=pitch, noise_std=noise_std)
    if duration <= 0 or pitch <= 0 or noise_std < 0:
        raise SclError("glucose generator needs positive duration/pitch, noise_std >= 0")
    rng = np.random.default_rng(seed)
    if params is None:
        params = GlucoseParams.sample(rng)
    ts = _uniform_grid(duration, pitch)
    day = ts % 24.0
    v = np.full(len(ts), params.baseline, dtype=float)
    for tm, amp in zip(params.meal_times, params.meal_amplitudes):
        v += amp * np.exp(-0.5 * ((day - tm) / params.meal_spread) ** 2)
    v = _carve_dip(v, day, params)
    if noise_std > 0.0:
        v = v + rng.normal(0.0, noise_std, len(ts))
    return PiecewiseConstantSignal((variable,), ts, v.reshape(-1, 1), duration)


def _carve_dip(v: np.ndarray, day: np.ndarray, p: GlucoseParams) -> np.ndarray:
    """Flat-bottomed low excursion with short linear ramps on both sides."""
    d0, d1 = p.dip_start, p.dip_start + p.dip_length
    out = v.copy()
    flat = (day >= d0) & (day <= d1)
    out[flat] = p.dip_floor
    rin = (day >= d0 - p.dip_ramp) & (day < d0)
    w = (day[rin] - (d0 - p.dip_ramp)) / p.dip_ramp
    out[rin] = (1.0 - w) * v[rin] + w * p.dip_floor
    rout = (day > d1) & (day <= d1 + p.dip_ramp)
    w = (day[rout] - d1) / p.dip_ramp
    out[rout] = (1.0 - w) * p.dip_floor + w * v[rout]
    return out
