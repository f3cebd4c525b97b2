"""Kernels: normalization, closed-form window integrals, weighted integrals."""

import math

import numpy as np
import pytest

from sclmon import (
    BooleanSignal,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    HorizonError,
    SclError,
    boolean_not,
)
from conftest import (kernel_mass_quadrature, random_boolean_signal, random_kernel,
                      weighted_integral_many)


class TestEvaluate:
    def test_flat_density(self):
        k = FlatKernel(0.0, 24.0)
        for x in (0.0, 5.0, 24.0):
            assert k.density_clipped(x) == pytest.approx(1.0 / 24.0)

    def test_exponential_density_at_window_end(self):
        k = ExponentialKernel(3.0, 0.0, 0.5)
        expected = 3.0 * math.exp(1.5) / (math.exp(1.5) - 1.0)
        assert k.density_clipped(0.5) == pytest.approx(expected, abs=1e-12)
        assert k.density_clipped(0.5) == pytest.approx(3.8617, abs=1e-4)

    def test_gaussian_normalizes(self):
        k = GaussianKernel(0.03, 0.1, 0.0, 24.0)
        assert k.mass(0.0, 24.0) == pytest.approx(1.0, abs=1e-12)

    def test_outside_window_rejected(self):
        with pytest.raises(SclError, match="outside window"):
            FlatKernel(0.0, 1.0).mass(0.5, 1.5)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_bound_rejected(self, a, b):
        with pytest.raises(SclError, match="bounds"):
            FlatKernel(0.0, 1.0).mass(a, b)

    def test_positivity_on_open_window(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lo = float(rng.uniform(0, 2))
            k = random_kernel(rng, lo, lo + float(rng.uniform(0.3, 3)))
            xs = np.linspace(k.lower + 1e-9, k.upper - 1e-9, 257)
            assert np.all(k.density_clipped(xs) > 0.0)


class TestIntegral:
    def test_flat_segment(self):
        assert FlatKernel(0.0, 1.0).mass(0.3, 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_exponential_segment(self):
        k = ExponentialKernel(3.0, 0.0, 0.5)
        expected = (math.exp(1.5) - math.exp(0.9)) / (math.exp(1.5) - 1.0)
        assert k.mass(0.3, 0.5) == pytest.approx(expected, abs=1e-12)
        assert k.mass(0.3, 0.5) == pytest.approx(0.5808, abs=1e-4)

    def test_full_window_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lo = float(rng.uniform(-3, 3))
            k = random_kernel(rng, lo, lo + float(rng.uniform(0.2, 5)))
            assert k.mass(k.lower, k.upper) == pytest.approx(1.0, abs=1e-9)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(SclError, match="reversed"):
            FlatKernel(0.0, 1.0).mass(0.5, 0.3)

    def test_out_of_window_bounds_rejected(self):
        with pytest.raises(SclError):
            FlatKernel(0.0, 1.0).mass(-0.2, 0.5)

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            lo = float(rng.uniform(-1, 1))
            k = random_kernel(rng, lo, lo + float(rng.uniform(0.5, 3)))
            a, b = np.sort(rng.uniform(k.lower, k.upper, 2))
            assert k.mass(float(a), float(b)) == pytest.approx(
                kernel_mass_quadrature(k, float(a), float(b)), abs=1e-9)

    def test_additivity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = random_kernel(rng, 0.0, 2.0)
            a, b, c = np.sort(rng.uniform(0.0, 2.0, 3))
            assert k.mass(a, c) == pytest.approx(
                k.mass(a, b) + k.mass(b, c), abs=1e-9)

    def test_near_equal_pairs_take_no_negative_mass(self):
        # an erf difference over a few ulps can round below zero; a mass
        # never does
        rng = np.random.default_rng(23)
        for _ in range(300):
            lo = float(rng.uniform(0, 1))
            k = random_kernel(rng, lo, lo + float(rng.uniform(0.5, 3)))
            a = rng.uniform(k.lower, k.upper, 200)
            b = np.minimum(a + np.spacing(a) * rng.integers(0, 5, 200), k.upper)
            assert np.all(k.masses(np.stack((a, b), axis=-1)) >= 0.0), k

    def test_a_cut_row_equals_its_pairs(self):
        # a window's segments share their cuts: a row of cuts gives each
        # segment the double its own (start, end) pair gives, alone or in a
        # batch of rows, and pairs give it in either memory order (the
        # monitor passes a transposed (2, n) array); rows hold equal cuts,
        # ulp-adjacent cuts and cuts on the window bounds
        rng = np.random.default_rng(29)
        shapes = set()
        for _ in range(120):
            lo = float(rng.uniform(-1, 1))
            k = random_kernel(rng, lo, lo + float(rng.uniform(0.5, 3)))
            shapes.add(type(k))
            rows = rng.uniform(k.lower, k.upper, (3, 60))
            rows[rng.random(rows.shape) < 0.05] = k.lower
            rows[rng.random(rows.shape) < 0.05] = k.upper
            rows.sort(axis=1)
            twin = rng.random((3, 59)) < 0.1
            rows[:, 1:][twin] = rows[:, :-1][twin]
            ulp = rng.random((3, 59)) < 0.2
            rows[:, 1:][ulp] = np.minimum(np.nextafter(rows[:, :-1][ulp], np.inf), k.upper)
            rows.sort(axis=1)
            batch = k.masses(rows)
            for row, got in zip(rows, batch):
                pairs = k.masses(np.stack((row[:-1], row[1:]), axis=-1))[:, 0]
                assert k.masses(np.array((row[:-1], row[1:])).T)[:, 0].tobytes() == pairs.tobytes()
                assert k.masses(row).tobytes() == pairs.tobytes(), k
                assert got.tobytes() == pairs.tobytes(), k
        assert shapes == {FlatKernel, ExponentialKernel, GaussianKernel}


class TestWeightedIntegral:
    def test_flat_against_partial_overlap(self):
        b = BooleanSignal.from_intervals(0, 1.5, [(0.3, 0.9)])
        assert weighted_integral_many(FlatKernel(0, 0.5), b, [0.0])[0] == pytest.approx(0.4, abs=1e-12)

    def test_decaying_exponential_weights_early_window(self):
        b = BooleanSignal.from_intervals(0, 1.5, [(0.3, 0.9)])
        k = ExponentialKernel(-3.0, 0.0, 0.5)
        expected = (math.exp(-0.9) - math.exp(-1.5)) / (1.0 - math.exp(-1.5))
        h = weighted_integral_many(k, b, [0.0])[0]
        assert h == pytest.approx(expected, abs=1e-12)
        assert h == pytest.approx(0.2362, abs=1e-4)

    def test_all_true_gives_one(self):
        rng = np.random.default_rng(11)
        full = BooleanSignal.always(0.0, 10.0)
        for _ in range(25):
            k = random_kernel(rng, 0.0, float(rng.uniform(0.5, 4)))
            t = float(rng.uniform(0, 10 - k.upper))
            assert weighted_integral_many(k, full, [t])[0] == pytest.approx(1.0, abs=1e-9)

    def test_all_false_gives_zero(self):
        empty = BooleanSignal.never(0.0, 10.0)
        assert weighted_integral_many(FlatKernel(0, 2), empty, [3.0])[0] == 0.0

    def test_window_outside_domain_rejected(self):
        b = BooleanSignal.always(0.0, 1.0)
        with pytest.raises(HorizonError):
            weighted_integral_many(FlatKernel(0.0, 2.0), b, [0.5])

    def test_in_unit_range_and_complement_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            b = random_boolean_signal(rng, 0.0, 10.0)
            k = random_kernel(rng, 0.0, float(rng.uniform(0.5, 4)))
            t = float(rng.uniform(0, 10 - k.upper))
            h = weighted_integral_many(k, b, [t])[0]
            h_not = weighted_integral_many(k, boolean_not(b), [t])[0]
            assert -1e-12 <= h <= 1 + 1e-12
            assert h + h_not == pytest.approx(1.0, abs=1e-9)


class TestValidation:
    def test_window_order(self):
        with pytest.raises(SclError):
            FlatKernel(2.0, 1.0)

    def test_exponential_rate_nonzero(self):
        with pytest.raises(SclError):
            ExponentialKernel(0.0, 0.0, 1.0)

    def test_exponential_overflow_guard(self):
        with pytest.raises(SclError, match="too large"):
            ExponentialKernel(400.0, 0.0, 2.0)

    def test_gaussian_spread_positive(self):
        with pytest.raises(SclError):
            GaussianKernel(0.0, -1.0, 0.0, 1.0)

    def test_gaussian_window_must_carry_mass(self):
        with pytest.raises(SclError, match="representable mass"):
            GaussianKernel(100.0, 0.1, 0.0, 1.0)


class TestGaussianTails:
    """Bumps centred outside their window: masses are far-side erfc differences."""

    @staticmethod
    def kernels():
        return GaussianKernel(10.0, 1.0, 0.0, 1.0), GaussianKernel(-10.0, 1.0, 0.0, 1.0)

    @staticmethod
    def erfc_mass(k, a, b):
        """Unnormalized mass of [a, b] from math.erfc on the side the window is on."""
        if k.center >= b:
            return math.erfc((k.center - b) / k.spread) - math.erfc((k.center - a) / k.spread)
        return math.erfc((a - k.center) / k.spread) - math.erfc((b - k.center) / k.spread)

    def test_tail_window_is_accepted_and_normalized(self):
        for k in self.kernels():
            assert k.mass(k.lower, k.upper) == pytest.approx(1.0, abs=1e-12)

    def test_tail_masses_match_quadrature(self):
        rng = np.random.default_rng(17)
        for k in self.kernels():
            for _ in range(20):
                a, b = np.sort(rng.uniform(k.lower, k.upper, 2))
                assert k.mass(float(a), float(b)) == pytest.approx(
                    kernel_mass_quadrature(k, float(a), float(b)), abs=1e-9)

    def test_tail_masses_match_erfc_differences(self):
        rng = np.random.default_rng(19)
        for k in self.kernels():
            total = self.erfc_mass(k, k.lower, k.upper)
            for _ in range(50):
                a, b = np.sort(rng.uniform(k.lower, k.upper, 2))
                expected = self.erfc_mass(k, float(a), float(b)) / total
                assert k.mass(float(a), float(b)) == pytest.approx(expected, rel=1e-12)
