"""Experiments on synthetic traces: noise agreement and robustness-guided search.

The noise-agreement experiment measures how often an existential low-glucose
check and its fraction-of-time counterpart, both evaluated on a noisy trace,
reproduce the noise-free existential verdict.  Measurement noise saturates
the existential check (a single noisy sample below the threshold suffices),
while the fraction-of-time operator needs a sustained excursion, so its
agreement percentage stays higher.

The falsification demo randomly samples generator parameters, scores each
trace by robustness at time zero, and reports the least-robust trace found.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SclError, require_finite
from .formula import Atom, Conv, Formula, eventually, variables
from .kernels import FlatKernel
from .monitor import monitor
from .parser import pretty_print
from .robustness import rho
from .signals import PiecewiseConstantSignal
from .traces import GlucoseParams, generate_glucose_like


@dataclass(frozen=True)
class NoiseAgreementReport:
    trials: int
    seed: int
    noise_std: float
    threshold_range: tuple[float, float]
    eventually_agreement_pct: float
    conv_agreement_pct: float
    eventually_formula: str
    conv_formula: str

    def to_dict(self) -> dict:
        return asdict(self)


def noise_agreement_experiment(trials: int = 500, seed: int = 0,
                               noise_std: float = 5.0,
                               threshold_range: tuple[float, float] = (55.0, 90.0),
                               window: float = 24.0,
                               coverage: float = 0.03,
                               duration: float = 24.5) -> NoiseAgreementReport:
    """Agreement of noisy existential vs fraction-of-time verdicts with the
    noise-free existential reference, over seeded random traces and thresholds."""
    if trials < 1:
        raise SclError("need at least one trial")
    require_finite("noise agreement", noise_std=noise_std,
                   threshold_low=threshold_range[0], threshold_high=threshold_range[1],
                   window=window, coverage=coverage, duration=duration)
    rng = np.random.default_rng(seed)
    n_eventually = 0
    n_conv = 0
    ev_text = ""
    conv_text = ""
    for i in range(trials):
        trial_seed = seed + i
        k = float(rng.uniform(*threshold_range))
        low = Atom("G", "<=", k)
        f_eventually = eventually(0.0, window, low)
        f_conv = Conv(FlatKernel(0.0, window), coverage, low)
        ev_text = pretty_print(f_eventually)
        conv_text = pretty_print(f_conv)
        clean = generate_glucose_like(trial_seed, duration=duration, noise_std=0.0)
        noisy = generate_glucose_like(trial_seed, duration=duration, noise_std=noise_std)
        reference = monitor(clean, f_eventually).satisfied_at_zero
        if monitor(noisy, f_eventually).satisfied_at_zero == reference:
            n_eventually += 1
        if monitor(noisy, f_conv).satisfied_at_zero == reference:
            n_conv += 1
    return NoiseAgreementReport(
        trials=trials,
        seed=seed,
        noise_std=noise_std,
        threshold_range=threshold_range,
        eventually_agreement_pct=100.0 * n_eventually / trials,
        conv_agreement_pct=100.0 * n_conv / trials,
        eventually_formula=ev_text,
        conv_formula=conv_text,
    )


@dataclass(frozen=True)
class FalsifyEvaluation:
    params: GlucoseParams
    robustness: float


@dataclass(frozen=True)
class FalsifyReport:
    budget: int
    seed: int
    formula: str
    evaluations: tuple[FalsifyEvaluation, ...]
    best: FalsifyEvaluation
    falsified: bool
    witness: PiecewiseConstantSignal = field(repr=False)

    def to_dict(self) -> dict:
        """The JSON fields: the witness trace left out, ``min_robustness`` added."""
        return {
            "budget": self.budget,
            "seed": self.seed,
            "formula": self.formula,
            "evaluations": [asdict(e) for e in self.evaluations],
            "best": asdict(self.best),
            "min_robustness": self.best.robustness,
            "falsified": self.falsified,
        }


def falsify_demo(formula: Formula, budget: int, seed: int,
                 duration: float = 24.5) -> FalsifyReport:
    """Random-search falsification over glucose generator parameters."""
    if budget < 1:
        raise SclError("budget must be at least 1")
    unknown = set(variables(formula)) - {"G"}
    if unknown:
        raise SclError(
            f"falsification traces only provide variable 'G'; formula uses {sorted(unknown)}"
        )
    rng = np.random.default_rng(seed)
    evaluations: list[FalsifyEvaluation] = []
    best_idx = 0
    best_trace: PiecewiseConstantSignal | None = None
    for i in range(budget):
        params = GlucoseParams.sample(rng)
        trace = generate_glucose_like(0, duration=duration, params=params)
        value = rho(trace, formula, 0.0)
        evaluations.append(FalsifyEvaluation(params, float(value)))
        if value < evaluations[best_idx].robustness or best_trace is None:
            best_idx = i
            best_trace = trace
    best = evaluations[best_idx]
    return FalsifyReport(
        budget=budget,
        seed=seed,
        formula=pretty_print(formula),
        evaluations=tuple(evaluations),
        best=best,
        falsified=best.robustness < 0.0,
        witness=best_trace,
    )
