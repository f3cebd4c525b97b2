"""The kernels' own erf/erfc: accuracy against references, special values, laws.

Errors are relative and counted in ulps of 1.0 (2**-52): ``|got - ref|``
over ``2**-52 * |ref|``.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from sclmon.kernels import _erf, _erfc

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
EDGES = np.array([0.46875, 4.0])       # where the approximation changes range
GRID = np.concatenate([np.linspace(-30.0, 30.0, 600_001),
                       EDGES, -EDGES, np.nextafter(EDGES, 0.0), np.nextafter(-EDGES, 0.0)])


def ulps(got, ref):
    """Relative error of ``got`` in ulps of 1.0, where ``ref`` is a normal double."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    keep = np.abs(ref) >= TINY
    return np.abs(got[keep] - ref[keep]) / (EPS * np.abs(ref[keep]))


class TestAccuracy:
    def test_erf_within_4_ulp_of_math_and_scipy(self):
        got = _erf(GRID)
        assert ulps(got, [math.erf(x) for x in GRID]).max() <= 4.0
        assert ulps(got, special.erf(GRID)).max() <= 4.0

    def test_erfc_within_4_ulp_of_exact_values(self):
        """Down to the underflow near 26.5, against 30-digit values."""
        xs = np.concatenate([np.linspace(-30.0, 26.5, 1_131), EDGES, np.nextafter(EDGES, 0.0)])
        with mpmath.workdps(30):
            exact = [float(mpmath.erfc(mpmath.mpf(float(x)))) for x in xs]
        assert ulps(_erfc(xs), exact).max() <= 4.0

    def test_erfc_agrees_with_math_and_scipy(self):
        """Each reference carries its own error, so the bound adds it.

        ``math.erfc`` is itself up to 2 ulp from the exact value on this
        grid.  ``scipy.special.erfc`` exponentiates a rounded ``-x*x``, so
        beyond ``x = 0.5`` its own error grows with ``x**2`` (to about 270
        ulp near 26.5) and it only serves as a reference below that.
        """
        got = _erfc(GRID)
        assert ulps(got, [math.erfc(x) for x in GRID]).max() <= 4.0 + 2.0
        low = GRID <= 0.5
        assert ulps(got[low], special.erfc(GRID[low])).max() <= 4.0

    def test_special_values(self):
        assert _erf(0.0) == 0.0 and not np.signbit(_erf(0.0))
        assert _erf(-0.0) == 0.0 and np.signbit(_erf(-0.0))
        assert _erfc(0.0) == 1.0 and _erfc(-0.0) == 1.0
        assert _erf(np.inf) == 1.0 and _erf(-np.inf) == -1.0
        assert _erfc(np.inf) == 0.0 and _erfc(-np.inf) == 2.0
        assert np.isnan(_erf(np.nan)) and np.isnan(_erfc(np.nan))
        assert _erfc(27.3) == 0.0 and _erfc(1e300) == 0.0 and _erfc(26.5) > 0.0

    def test_shapes(self):
        assert np.shape(_erf(0.5)) == () and np.shape(_erfc(np.float64(0.5))) == ()
        assert float(_erf(0.5)) == pytest.approx(math.erf(0.5), rel=4 * EPS)
        x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
        assert _erf(x).shape == (2, 3) and _erfc(x).shape == (2, 3)
        assert np.array_equal(_erf(x).ravel(), _erf(x.ravel()))


REALS = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)
LAWS = settings(max_examples=200, deadline=None)


class TestLaws:
    @LAWS
    @given(REALS)
    def test_erf_is_odd(self, x):
        assert _erf(-x) == -_erf(x)

    @LAWS
    @given(REALS)
    def test_erf_plus_erfc_is_one(self, x):
        assert abs(float(_erf(x)) + float(_erfc(x)) - 1.0) <= 2 * EPS

    @LAWS
    @given(REALS)
    def test_erfc_reflection(self, x):
        assert abs(float(_erfc(-x)) - (2.0 - float(_erfc(x)))) <= 2 * EPS

    def test_erf_is_monotone_across_range_edges(self):
        """Where the approximation changes range, a mismatch shows as a step down."""
        for edge in EDGES:
            side = edge + np.spacing(edge) * np.arange(-20_000, 20_001)
            for x in (side, -side[::-1]):
                v = _erf(x)
                assert np.all(v[1:] >= np.maximum.accumulate(v)[:-1] - 4 * EPS * np.abs(v[1:]))

    @LAWS
    @given(REALS, REALS)
    def test_erf_is_monotone(self, x, y):
        """Non-decreasing up to rounding.

        Between neighbouring doubles a few ulp of rounding can reverse two
        values (near 0.46875 this happens for scipy's erf too), so a step
        down is allowed up to the 4 ulp accuracy bound.
        """
        lo, hi = min(x, y), max(x, y)
        for a, b in ((lo, hi), (lo, np.nextafter(lo, np.inf))):
            assert float(_erf(b)) >= float(_erf(a)) - 4 * EPS * abs(float(_erf(a)))
