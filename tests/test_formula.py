"""Formula AST: horizon, validation, variables."""

import numpy as np
import pytest

from sclmon import (
    And,
    Atom,
    BooleanSignal,
    BoundedKernel,
    Conv,
    ConvDual,
    FlatKernel,
    HorizonError,
    Implies,
    Not,
    Or,
    PiecewiseConstantSignal,
    SclError,
    TRUE,
    eventually,
    globally,
    horizon,
    monitor,
    variables,
)
from sclmon.formula import evaluable_end

G70 = Atom("G", ">=", 70.0)


class TestHorizon:
    def test_atom_is_zero(self):
        assert horizon(G70) == 0.0

    def test_single_window(self):
        f = Conv(FlatKernel(0.0, 24.0), 0.95, G70)
        assert horizon(f) == 24.0

    def test_nested_windows_accumulate(self):
        ten_minutes = 10.0 / 60.0
        inner = Implies(
            Conv(FlatKernel(0.0, ten_minutes), 0.95, Atom("G", "<=", 70.0)),
            Conv(FlatKernel(0.0, ten_minutes), 0.90, Atom("I", "<=", 0.0)),
        )
        f = globally(0.0, 24.0, inner)
        assert horizon(f) == pytest.approx(24.0 + ten_minutes)

    def test_or_takes_max(self):
        f = Or(globally(0, 2, G70), globally(0, 5, G70))
        assert horizon(f) == 5.0


class TestEvaluableEnd:
    def test_is_where_the_verdict_ends(self):
        # (D - u1) - u2, the order in which the monitor spans its nodes
        trace = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 2.76)
        f = globally(0.0, 0.39, Conv(FlatKernel(0.0, 0.24), 0.5, Atom("v", ">", 0.0)))
        end = evaluable_end(f, 2.76)
        assert end == (2.76 - 0.24) - 0.39 != 2.76 - horizon(f)
        assert monitor(trace, f).signal.end == end

    def test_connective_ends_at_its_earlier_operand(self):
        f = Or(Not(globally(0, 2, G70)), Implies(globally(0, 5, G70), TRUE))
        assert evaluable_end(f, 7.5) == 2.5

    def test_shortfall_within_rounding_ends_at_zero(self):
        assert evaluable_end(globally(0, 0.3, G70), 0.3 - 1e-13) == 0.0

    def test_larger_shortfall_raises(self):
        with pytest.raises(HorizonError, match="horizon 5 exceeds trace duration 4 by 1"):
            evaluable_end(globally(0, 5, G70), 4.0)


class TestDesugar:
    TRACE = PiecewiseConstantSignal(
        ("G",), np.array([0.0, 1.0, 2.5, 4.0]),
        np.array([[80.0], [60.0], [90.0], [75.0]]), 8.0)

    def test_globally_is_full_coverage(self):
        f = globally(0.0, 2.0, G70)
        assert f == Conv(FlatKernel(0.0, 2.0), 1.0, G70)
        # G >= 70 fails on [1, 2.5), so only windows starting at 2.5 or later hold.
        assert monitor(self.TRACE, f).signal == BooleanSignal.from_intervals(
            0.0, 6.0, [(2.5, 6.0)])

    def test_eventually_is_complement_chain(self):
        f = eventually(0.0, 2.0, G70)
        assert f == ConvDual(FlatKernel(0.0, 2.0), 0.0, G70)
        assert monitor(self.TRACE, f).signal == monitor(
            self.TRACE, Not(Conv(FlatKernel(0.0, 2.0), 1.0, Not(G70)))).signal


class TestValidation:
    def test_threshold_range(self):
        with pytest.raises(SclError, match="threshold"):
            Conv(FlatKernel(0, 1), 1.5, G70)
        with pytest.raises(SclError, match="threshold"):
            ConvDual(FlatKernel(0, 1), -0.1, G70)

    def test_backward_window_rejected(self):
        with pytest.raises(SclError, match="forward"):
            Conv(FlatKernel(-1.0, 1.0), 0.5, G70)

    def test_atom_comparison_checked(self):
        with pytest.raises(SclError):
            Atom("v", "==", 1.0)

    @pytest.mark.parametrize("op", [Conv, ConvDual])
    def test_kernel_of_another_shape_rejected(self, op):
        # the evaluators know three shapes only; a subclass of the base
        # class is refused by name, not failed on deep in the monitor
        class Triangle(BoundedKernel):
            lower, upper = 0.0, 1.0

            def masses(self, cuts):
                c = np.asarray(cuts, dtype=float) ** 2
                return c[..., 1:] - c[..., :-1]

        with pytest.raises(SclError, match="got Triangle"):
            op(Triangle(), 0.5, G70)


def test_variables_in_first_use_order():
    f = Or(And(Atom("b", ">", 0), Atom("a", ">", 0)), Atom("b", "<", 1))
    assert variables(f) == ("b", "a")
