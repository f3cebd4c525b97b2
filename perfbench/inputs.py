"""Seeded input traces for the benchmark workloads.

The generators live here, not in ``sclmon.traces``, so that a change to the
library cannot change what a workload feeds it.  Every trace is written as a
``time,var...`` CSV with ``repr`` floats, so the same seed gives the same
bytes and the same sha256.  Values are unrounded floats: no sample sits
exactly on a formula threshold, so the verdicts do not hinge on the
strict/non-strict convention at plateaus.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PITCH = 1.0 / 12.0                  # one CGM sample every 5 minutes (hours)
POOL = 8                            # input sets per workload, chosen by seed % POOL


@dataclass(frozen=True)
class Trace:
    variables: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray               # shape (samples, variables)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def csv_text(self) -> str:
        lines = ["time," + ",".join(self.variables)]
        for t, row in zip(self.times, self.values):
            lines.append(",".join([repr(float(t)), *(repr(float(v)) for v in row)]))
        return "\n".join(lines) + "\n"


def _grid(duration: float) -> np.ndarray:
    n = int(round(duration / PITCH))
    ts = PITCH * np.arange(n + 1)
    ts[-1] = duration
    return ts


def _glucose(rng: np.random.Generator, ts: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Daily profile with the same events every day: a night-time low well
    below 70, a small breakfast and dinner that stay well below 180, a lunch
    well above 180, and one lunch in the trace well above 300.  Seeds move the
    events and change their sizes, not their number, so that every seed gives
    the monitor about the same work and no stretch of samples lingers near a
    threshold."""
    days = int(math.ceil(ts[-1] / 24.0))
    g = rng.uniform(108.0, 120.0) + 4.0 * np.sin(2 * math.pi * ts / 24.0 + rng.uniform(0, 2 * math.pi))
    severe_day = int(rng.integers(max(1, int(ts[-1] // 24.0))))   # a whole day of the trace
    meals: list[float] = []
    for day in range(days):
        for base, lo, hi in ((7.0, 25.0, 40.0), (12.5, 90.0, 105.0), (19.0, 25.0, 40.0)):
            tm = 24.0 * day + base + rng.uniform(-0.5, 0.5)
            amp = rng.uniform(215.0, 235.0) if (day == severe_day and base == 12.5) else rng.uniform(lo, hi)
            g = g + amp * np.exp(-0.5 * ((ts - tm) / rng.uniform(0.9, 1.2)) ** 2)
            meals.append(tm)
    for day in range(days):
        d0 = 24.0 * day + rng.uniform(2.0, 4.5)
        d1 = d0 + rng.uniform(0.8, 1.4)
        floor, ramp = rng.uniform(55.0, 62.0), 0.3
        w = np.clip(np.minimum(ts - (d0 - ramp), (d1 + ramp) - ts) / ramp, 0.0, 1.0)
        g = (1.0 - w) * g + w * floor
    g = g + rng.normal(0.0, 1.0, len(ts))
    return g, meals


def glucose_trace(seed: int, duration: float, insulin: bool = False) -> Trace:
    """CGM glucose ``G`` at 5-minute pitch; with ``insulin`` also a pump rate
    ``I``: basal, meal boluses, correction when high, suspended when low."""
    rng = np.random.default_rng([seed, 1 if insulin else 0])
    ts = _grid(duration)
    g, meals = _glucose(rng, ts)
    if not insulin:
        return Trace(("G",), ts, g.reshape(-1, 1))
    rate = rng.uniform(0.8, 1.1) + 0.2 * np.sin(2 * math.pi * ts / 24.0)
    for tm in meals:
        rate = np.where((ts >= tm - 0.1) & (ts <= tm + 0.15), rng.uniform(3.0, 6.0), rate)
    rate = np.where(g >= 250.0, 3.0 + rng.uniform(0.0, 0.5), rate)
    rate = np.where(g <= 75.0, 0.0, rate)
    return Trace(("G", "I"), ts, np.column_stack([g, rate]))


def square_wave(seed: int, duration: float, period: float = 0.35, duty: float = 0.3) -> Trace:
    """Square wave ``v``, high for the first ``duty`` of each period, with a
    seeded phase and seeded low/high levels; samples only at its edges."""
    rng = np.random.default_rng([seed, 2])
    phase = rng.uniform(0.0, period)
    low, high = rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0)
    first = -phase
    rises = first + period * np.arange(int(duration / period) + 2)
    edges = np.concatenate([rises, rises + duty * period])
    levels = np.concatenate([np.full(len(rises), high), np.full(len(rises), low)])
    order = np.argsort(edges, kind="stable")
    edges, levels = edges[order], levels[order]
    inside = (edges > 0.0) & (edges < duration)
    start_level = levels[edges <= 0.0][-1]
    ts = np.concatenate([[0.0], edges[inside], [duration]])
    vs = np.concatenate([[start_level], levels[inside], [levels[inside][-1]]])
    return Trace(("v",), ts, vs.reshape(-1, 1))


def write_csv(trace: Trace, path: Path) -> dict:
    """Write the trace; return its manifest entry."""
    data = trace.csv_text().encode()
    path.write_bytes(data)
    return {
        "samples": int(len(trace.times)),
        "duration": trace.duration,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
