"""Correctness gate: compare one operation's outputs with the recorded golden.

Each check returns ``None`` when the output passes and a one-line reason when
it does not; the caller counts a failed operation either way.
"""

from __future__ import annotations

import math

VERDICT_TOL = 1e-6      # allowed true-set difference, as a share of the domain
RHO_TOL = 1e-5          # allowed |rho - golden rho|
TIME_TOL = 1e-9


def true_intervals(segments: list[dict]) -> list[list[float]]:
    """True intervals of the CLI's ``segments`` list (start, end, truth)."""
    return [[s["start"], s["end"]] for s in segments if s["truth"] and s["end"] > s["start"]]


def _measure(ivs) -> float:
    return math.fsum(e - s for s, e in ivs)


def _overlap(a, b) -> float:
    total, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total.append(hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return math.fsum(total)


def symmetric_difference(a, b) -> float:
    """Measure of the symmetric difference of two sorted disjoint interval lists."""
    return _measure(a) + _measure(b) - 2.0 * _overlap(a, b)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= TIME_TOL * max(1.0, abs(y))


def verdict_mismatch(satisfied: bool, domain, intervals, gold: dict,
                     tol: float = VERDICT_TOL) -> str | None:
    if satisfied != gold["satisfied_at_zero"]:
        return f"satisfied_at_zero {satisfied} != golden {gold['satisfied_at_zero']}"
    gs, ge = gold["domain"]
    if not (_close(domain[0], gs) and _close(domain[1], ge)):
        return f"domain {list(domain)} != golden {[gs, ge]}"
    diff = symmetric_difference(intervals, gold["intervals"])
    if diff > tol * max(ge - gs, TIME_TOL):
        return f"true set differs from golden by {diff:.3g} over a domain of {ge - gs:.6g}"
    return None


def rho_indices(points: int, stride: int) -> list[int]:
    """Grid indices a rho golden keeps: every ``stride``-th point and the last."""
    idx = list(range(0, points, stride))
    return idx if idx[-1] == points - 1 else idx + [points - 1]


def rho_mismatch(satisfied: bool, times, values, gold: dict) -> str | None:
    if satisfied != gold["satisfied_at_zero"]:
        return f"satisfied_at_zero {satisfied} != golden {gold['satisfied_at_zero']}"
    if len(values) != gold["rho_points"] or times[0] != 0.0 or not _close(times[-1], gold["rho_end"]):
        return (f"rho grid of {len(values)} points ending at {times[-1]} != golden "
                f"{gold['rho_points']} points ending at {gold['rho_end']}")
    idx = rho_indices(gold["rho_points"], gold["rho_stride"])
    worst = max(abs(values[i] - g) for i, g in zip(idx, gold["rho"]))
    if worst > RHO_TOL:
        return f"rho differs from golden by {worst:.3g}"
    if abs(values[0]) > RHO_TOL and (values[0] > 0) != satisfied:
        return f"sign of rho(0) = {values[0]:.6g} disagrees with satisfied_at_zero {satisfied}"
    return None


def cli_mismatches(docs: list[dict], returncode: int, gold: list[dict]) -> list[str]:
    """All reasons one ``scl-mon check|rho --format json`` run fails the gate."""
    if returncode == 2:
        return ["exit code 2"]
    if len(docs) != len(gold):
        return [f"{len(docs)} formula outputs, golden has {len(gold)}"]
    expected_rc = 0 if all(g["satisfied_at_zero"] for g in gold) else 1
    problems = [] if returncode == expected_rc else [f"exit code {returncode} != {expected_rc}"]
    for i, (doc, g) in enumerate(zip(docs, gold)):
        if "rho" in g:
            rob = doc["robustness"]
            why = rho_mismatch(doc["satisfied_at_zero"], rob["times"], rob["values"], g)
        else:
            d = doc["domain"]
            why = verdict_mismatch(doc["satisfied_at_zero"], (d["start"], d["end"]),
                                   true_intervals(doc["segments"]), g)
        if why:
            problems.append(f"formula {i}: {why}")
    return problems


def stream_mismatches(result: dict, gold: list[dict]) -> list[str]:
    """Stream replay: online output must equal offline exactly, and offline
    must match the golden."""
    if len(result["formulas"]) != len(gold):
        return [f"{len(result['formulas'])} stream outputs, golden has {len(gold)}"]
    problems = []
    for i, (res, g) in enumerate(zip(result["formulas"], gold)):
        if not res["equals_offline"]:
            problems.append(f"formula {i}: resolved_signal() != offline monitor()")
        why = verdict_mismatch(res["satisfied_at_zero"], res["domain"], res["intervals"], g)
        if why:
            problems.append(f"formula {i}: {why}")
    return problems
