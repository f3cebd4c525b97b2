"""Noise-agreement ordering and the robustness-guided falsification demo."""

import pytest

from sclmon import SclError, parse
from sclmon.experiments import falsify_demo, noise_agreement_experiment


class TestNoiseAgreement:
    def test_no_noise_gives_full_agreement(self):
        report = noise_agreement_experiment(trials=40, seed=0, noise_std=0.0)
        assert report.eventually_agreement_pct == 100.0
        assert report.conv_agreement_pct == 100.0

    def test_noise_favors_coverage_operator(self):
        report = noise_agreement_experiment(trials=120, seed=0, noise_std=5.0)
        assert report.conv_agreement_pct > report.eventually_agreement_pct

    def test_report_schema(self):
        report = noise_agreement_experiment(trials=5, seed=3, noise_std=5.0)
        doc = report.to_dict()
        assert doc["trials"] == 5 and doc["seed"] == 3
        assert 0 <= doc["eventually_agreement_pct"] <= 100
        assert 0 <= doc["conv_agreement_pct"] <= 100
        assert "flat[0.0,24.0]" in doc["conv_formula"]
        assert ">*" in doc["eventually_formula"]  # the dual (sometime) operator

    def test_deterministic_for_seed(self):
        a = noise_agreement_experiment(trials=20, seed=7, noise_std=5.0)
        b = noise_agreement_experiment(trials=20, seed=7, noise_std=5.0)
        assert a == b

    @pytest.mark.parametrize("arg,bad", [("noise_std", float("nan")),
                                         ("noise_std", float("inf")),
                                         ("window", float("nan")),
                                         ("coverage", float("nan")),
                                         ("duration", float("inf"))])
    def test_non_finite_argument_rejected(self, arg, bad):
        with pytest.raises(SclError, match=f"{arg} must be finite"):
            noise_agreement_experiment(trials=2, seed=0, **{arg: bad})

    def test_non_finite_threshold_range_rejected(self):
        with pytest.raises(SclError, match="threshold_high must be finite"):
            noise_agreement_experiment(trials=2, threshold_range=(55.0, float("nan")))


class TestFalsifyDemo:
    def test_trivially_true_formula_has_positive_min(self):
        # the generator's dip floor never goes below ~58
        f = parse("<flat[0,24], 0.95> (G >= 40)")
        report = falsify_demo(f, budget=10, seed=0)
        assert report.best.robustness > 0.0
        assert not report.falsified

    def test_reachable_threshold_is_falsified_with_budget(self):
        f = parse("<flat[0,24], 0.95> (G >= 70)")
        report = falsify_demo(f, budget=25, seed=0)
        assert report.best.robustness < 0.0
        assert report.falsified
        assert report.witness.value_at(0.0, "G") > 0.0  # witness trace shipped

    def test_budget_one_reports_single_evaluation(self):
        f = parse("<flat[0,24], 0.5> (G >= 70)")
        report = falsify_demo(f, budget=1, seed=5)
        assert len(report.evaluations) == 1
        assert report.best == report.evaluations[0]

    def test_deterministic_and_min_consistent(self):
        f = parse("<flat[0,24], 0.9> (G >= 70)")
        a = falsify_demo(f, budget=8, seed=2)
        b = falsify_demo(f, budget=8, seed=2)
        assert a.to_dict() == b.to_dict()
        assert a.best.robustness == min(e.robustness for e in a.evaluations)

    def test_unknown_variable_rejected(self):
        with pytest.raises(SclError, match="variable"):
            falsify_demo(parse("X >= 1"), budget=1, seed=0)
