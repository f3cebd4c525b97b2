"""Interval algebra: normalization, Boolean combinations, restriction."""

import numpy as np
import pytest

from sclmon import (
    BooleanSignal,
    PiecewiseConstantSignal,
    SclError,
    TraceError,
    boolean_and,
    boolean_not,
    boolean_or,
    restrict_domain,
)
from conftest import random_boolean_signal


def sig(start, end, *intervals):
    return BooleanSignal.from_intervals(start, end, intervals)


class TestNormalization:
    def test_adjacent_intervals_merge(self):
        assert sig(0, 1, (0.0, 0.2), (0.2, 0.5)).intervals == ((0.0, 0.5),)

    def test_zero_length_intervals_dropped(self):
        assert sig(0, 1, (0.5, 0.5)).intervals == ()

    def test_overlapping_intervals_merge(self):
        assert sig(0, 1, (0.0, 0.4), (0.3, 0.7)).intervals == ((0.0, 0.7),)


class TestBooleanNot:
    def test_complement_of_middle_interval(self):
        assert boolean_not(sig(0, 1, (0.3, 0.9))) == sig(0, 1, (0.0, 0.3), (0.9, 1.0))

    def test_all_true_becomes_all_false(self):
        assert boolean_not(BooleanSignal.always(0, 2)).intervals == ()

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_boolean_signal(rng, 0.0, 5.0)
            assert boolean_not(boolean_not(s)) == s


class TestBooleanOr:
    def test_overlap_union(self):
        a = sig(0, 1, (0.0, 0.4))
        b = sig(0, 1, (0.3, 0.7))
        assert boolean_or(a, b) == sig(0, 1, (0.0, 0.7))

    def test_identity_with_false(self):
        a = sig(0, 1, (0.1, 0.2), (0.5, 0.6))
        assert boolean_or(a, BooleanSignal.never(0, 1)) == a

    def test_excluded_middle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = random_boolean_signal(rng, 0.0, 3.0)
            assert boolean_or(s, boolean_not(s)) == BooleanSignal.always(0.0, 3.0)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(SclError, match="domain mismatch"):
            boolean_or(sig(0, 1), sig(0, 2))


class TestRestrictDomain:
    def test_clips_intervals(self):
        assert restrict_domain(sig(0, 1, (0.3, 0.9)), (0.0, 0.5)) == \
            sig(0, 0.5, (0.3, 0.5))

    def test_full_domain_is_identity(self):
        s = sig(0, 1, (0.3, 0.9))
        assert restrict_domain(s, (0.0, 1.0)) == s

    def test_restriction_missing_the_intervals(self):
        assert restrict_domain(sig(0, 1, (0.3, 0.9)), (0.95, 1.0)).intervals == ()

    def test_outside_domain_rejected(self):
        with pytest.raises(SclError):
            restrict_domain(sig(0, 1), (-0.5, 0.5))


class TestProperties:
    def test_normalization_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = random_boolean_signal(rng, 0.0, 8.0)
            again = BooleanSignal.from_intervals(s.start, s.end, s.intervals)
            assert again == s

    def test_de_morgan(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = random_boolean_signal(rng, 0.0, 6.0)
            b = random_boolean_signal(rng, 0.0, 6.0)
            derived_and = boolean_not(boolean_or(boolean_not(a), boolean_not(b)))
            assert boolean_not(boolean_or(a, b)) == \
                boolean_and(boolean_not(a), boolean_not(b))
            assert derived_and == boolean_and(a, b)

    def test_degenerate_domain_point(self):
        on = sig(2.0, 2.0, (1.0, 3.0))
        off = sig(2.0, 2.0)
        assert on.value_at(2.0) and not off.value_at(2.0)
        assert boolean_not(on) == off and boolean_not(off) == on


class TestPiecewiseConstantSignal:
    def test_first_sample_must_be_zero(self):
        with pytest.raises(TraceError, match="time 0"):
            PiecewiseConstantSignal(("v",), np.array([1.0]), np.array([[2.0]]), 2.0)

    def test_strictly_increasing_times(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            PiecewiseConstantSignal(
                ("v",), np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)), 2.0)

    def test_right_continuous_lookup(self):
        t = PiecewiseConstantSignal(
            ("v",), np.array([0.0, 10.0, 20.0]),
            np.array([[50.0], [80.0], [60.0]]), 25.0)
        assert t.value_at(0.0, "v") == 50.0
        assert t.value_at(9.999, "v") == 50.0
        assert t.value_at(10.0, "v") == 80.0
        assert t.value_at(25.0, "v") == 60.0

    def test_pointwise_sampling_matches_membership(self):
        rng = np.random.default_rng(23)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0, 10, 40))])
        times = np.unique(times)
        vals = rng.uniform(-1, 1, (len(times), 1))
        trace = PiecewiseConstantSignal(("v",), times, vals, 10.0)

        from sclmon import Atom, eval_atom
        atom = Atom("v", ">=", 0.0)
        truth = eval_atom(trace, atom)
        ts = rng.uniform(0, 10, 10_000)
        member = truth.values_at(ts)
        direct = np.array([trace.value_at(t, "v") >= 0.0 for t in ts])
        # boundary times are measure-zero; random samples never hit them
        assert np.array_equal(member, direct)

    def test_unknown_variable(self):
        t = PiecewiseConstantSignal(("v",), np.array([0.0]), np.array([[1.0]]), 1.0)
        with pytest.raises(SclError, match="unknown variable"):
            t.value_at(0.0, "w")
