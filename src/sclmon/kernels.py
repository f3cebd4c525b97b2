"""Bounded kernels over a window ``[lower, upper]``.

Every kernel integrates to one over its window and is strictly positive on
the open window.  Window integrals are closed-form (flat and exponential via
``expm1``, the Gaussian bump via ``erf``/``erfc``), so kernel error stays at
rounding level; the test suite cross-checks them against adaptive quadrature.

Each shape has one mass primitive, ``masses(cuts)``: the masses between
consecutive cuts along the last axis.  It evaluates ``expm1`` or ``erf``
once per cut and differences neighbours, so the segments of a window, which
share their cuts, cost one evaluation each, and an ``(n, 2)`` array of cuts
gives n independent pairs.  A mass is elementwise the same expression in
either layout, so it is the same double.

``erf`` and ``erfc`` are the module's own vectorised numpy versions of
Cody's rational Chebyshev approximations, accurate to a few ulp, so the
package needs nothing beyond numpy.  A Gaussian mass whose ends lie on one
side of the centre is an ``erfc`` difference taken on the far side, so a
window deep in the bump's tail keeps its relative accuracy instead of
cancelling to zero.

The three shapes below are the only ones: the evaluators solve each in
closed form or by its own H' splits, so a formula rejects any other kernel.
Window integrals of a Boolean signal live with the evaluators in
:mod:`sclmon.monitor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SclError

_MAX_EXPONENT = 700.0  # exp overflow guard for exponential kernels

# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969), with the coefficients and ranges of his CALERF:
# erf(y) = y·A(y²)/B(y²) for y <= 0.46875, erfc(y) = exp(-y²)·C(y)/D(y) for
# y <= 4 and exp(-y²)/y·(1/√π - z·P(z)/Q(z)), z = 1/y², beyond.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_ERF_CENTRAL = 0.46875     # erf itself is approximated up to here, erfc beyond
_ERFC_ZERO = 27.3          # erfc rounds to 0.0 from here on
_INV_SQRT_PI = 5.6418958354775628695e-1


def _horner_table() -> np.ndarray:
    """The three ratios as one Horner table, shape (step, 6, 1).

    Rows alternate numerator and denominator of A/B, C/D and P/Q.  CALERF
    starts each numerator at its last coefficient times the variable, each
    denominator at the variable itself, and adds the last numerator and
    denominator coefficients without a final multiply.  Leading zeros pad
    the shorter ratios to nine steps and change no bit of their values.
    """
    rows = []
    for num, den in ((_ERF_A, _ERF_B), (_ERFC_C, _ERFC_D), (_ERFC_P, _ERFC_Q)):
        n = len(den)
        pad = (0.0,) * (8 - n)
        rows += [pad + (num[-1],) + num[:n - 1] + (num[n - 1],), pad + (1.0,) + den]
    return np.array(rows).T[..., None].copy()


_HORNER = _horner_table()


def _erf_core(y: np.ndarray) -> np.ndarray:
    """``erf(y)`` where ``y <= 0.46875``, ``erfc(y)`` beyond, for 1-d ``y = |x|``.

    Each value is the one of the pair that is computed directly, so callers
    can build ``erf``, ``erfc`` and differences without cancellation.  All
    three ratios are evaluated on every element whose ``erfc`` does not
    round to 0 (one Horner pass on clamped arguments; the call count, not
    the element count, is what costs) and each element keeps its own
    range's result.
    ``exp(-y²)`` is ``exp(-h²)·exp(-(y-h)(y+h))`` with ``h`` = y truncated
    to 1/16, whose square is exact.  inf gives 0, nan stays nan.
    """
    out = np.minimum(y, 0.0)            # 0 where erfc underflows, nan stays nan
    live = y < _ERFC_ZERO
    yl = y[live]
    yc = np.minimum(yl, _ERF_CENTRAL)
    yt = np.maximum(yl, _ERF_CENTRAL)
    z = 1.0 / (yt * yt)
    ysq = yc * yc
    w = np.array((ysq, ysq, yt, yt, z, z))
    acc = _HORNER[0] * w
    for c in _HORNER[1:-1]:
        np.add(acc, c, out=acc)
        np.multiply(acc, w, out=acc)
    acc += _HORNER[-1]
    ratio = acc[0::2] / acc[1::2]
    head = np.trunc(yt * 16.0) / 16.0
    exp_sq = np.exp(-(head * head)) * np.exp((head - yt) * (yt + head))
    erfc = np.where(yl <= 4.0, ratio[1], (_INV_SQRT_PI - z * ratio[2]) / yt) * exp_sq
    out[live] = np.where(yl <= _ERF_CENTRAL, yc * ratio[0], erfc)
    return out


def _erf_split(x: np.ndarray):
    """``erf(x) = whole + part`` for 1-d ``x``, with ``whole`` in {-1, 0, 1}.

    Central ``x`` has ``whole = 0`` and ``part = erf(x)``; beyond it
    ``whole = sign(x)`` and ``part = -sign(x)·erfc(|x|)``, so a difference of
    two ``erf`` on one side of 0 cancels the wholes exactly and subtracts
    the small ``erfc`` tails.
    """
    y = np.abs(x)
    central = y <= _ERF_CENTRAL
    part = np.copysign(_erf_core(y), x)
    return np.where(central, 0.0, np.sign(x)), np.where(central, part, -part)


def _erf(x):
    """Vectorised error function (0-d or n-d input, nan passes through)."""
    x = np.asarray(x, dtype=float)
    whole, part = _erf_split(x.ravel())
    # central values skip the addition, which would turn erf(-0.0) into +0.0
    return np.where(whole == 0.0, part, whole + part).reshape(x.shape)


def _erfc(x):
    """Vectorised complementary error function ``1 - erf(x)``."""
    x = np.asarray(x, dtype=float)
    whole, part = _erf_split(x.ravel())
    return ((1.0 - whole) - part).reshape(x.shape)


class BoundedKernel:
    """Shared behaviour for all kernel shapes (window checks, validated mass)."""

    lower: float
    upper: float

    # -- shape interface -------------------------------------------------
    def density_clipped(self, x):
        """Normalized density; assumes x already inside the window."""
        raise NotImplementedError

    def masses(self, cuts):
        """Window integrals between consecutive ``cuts`` along the last axis;
        assumes window containment and ascending cuts."""
        raise NotImplementedError

    # -- validated public surface ----------------------------------------
    def _validate_window(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise SclError("kernel window bounds must be finite")
        if self.lower >= self.upper:
            raise SclError(
                f"kernel window must satisfy lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def mass(self, a: float, b: float) -> float:
        if not a <= b:
            raise SclError(f"reversed integration bounds: [{a}, {b}]")
        if not (self.lower - 1e-12 <= a and b <= self.upper + 1e-12):
            raise SclError(
                f"integration bounds [{a}, {b}] outside window [{self.lower}, {self.upper}]"
            )
        a = min(max(a, self.lower), self.upper)
        b = min(max(b, self.lower), self.upper)
        return float(self.masses(np.array([a, b]))[0])


@dataclass(frozen=True)
class FlatKernel(BoundedKernel):
    """Uniform weight: every instant of the window counts the same."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        self._validate_window()

    def density_clipped(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / self.width) if np.ndim(x) else 1.0 / self.width

    def masses(self, cuts):
        c = np.asarray(cuts, dtype=float)
        return (c[..., 1:] - c[..., :-1]) / self.width


@dataclass(frozen=True)
class ExponentialKernel(BoundedKernel):
    """Exponentially weighted window, ``exp(rate * x)`` renormalized.

    Positive rates emphasise the end of the window, negative rates the
    beginning.
    """

    rate: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        self._validate_window()
        if not math.isfinite(self.rate) or self.rate == 0.0:
            raise SclError(f"exponential rate must be finite and nonzero, got {self.rate}")
        if abs(self.rate) * self.width > _MAX_EXPONENT:
            raise SclError(
                f"|rate| * window width = {abs(self.rate) * self.width:.1f} too large "
                "(would overflow)"
            )

    def density_clipped(self, x):
        r = self.rate
        return r * np.exp(r * (np.asarray(x, dtype=float) - self.lower)) / math.expm1(r * self.width)

    def masses(self, cuts):
        r = self.rate
        e = np.expm1(r * (np.asarray(cuts, dtype=float) - self.lower))
        return (e[..., 1:] - e[..., :-1]) / math.expm1(r * self.width)


@dataclass(frozen=True)
class GaussianKernel(BoundedKernel):
    """Gaussian bump ``exp(-((x - center)/spread)^2)`` renormalized.

    Extreme windows (|x - center| >> spread) underflow to zero density;
    the window masses remain well defined.  A window far in one tail of the
    bump is accepted as long as its ``erfc`` mass is a normal double.
    """

    center: float
    spread: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        self._validate_window()
        if not math.isfinite(self.center):
            raise SclError("gaussian center must be finite")
        if not math.isfinite(self.spread) or self.spread <= 0:
            raise SclError(f"gaussian width must be positive, got {self.spread}")
        # a subnormal span would leave every mass with only a few bits
        if self._erf_span < np.finfo(float).tiny:
            raise SclError(
                f"gaussian bump at {self.center}+-{self.spread} carries no "
                f"representable mass inside [{self.lower}, {self.upper}]"
            )

    def _u(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.spread

    @cached_property
    def _erf_span(self) -> float:
        """``erf(u(upper)) - erf(u(lower))``, the unnormalized window mass."""
        whole, part = _erf_split(self._u(np.array([self.lower, self.upper])))
        return float((whole[1] - whole[0]) + (part[1] - part[0]))

    def density_clipped(self, x):
        z = self.spread * (math.sqrt(math.pi) / 2.0) * self._erf_span
        return np.exp(-self._u(x) ** 2) / z

    def masses(self, cuts):
        # one erf per cut, differenced as wholes and parts apart (_erf_split)
        u = self._u(cuts)
        whole, part = (x.reshape(u.shape) for x in _erf_split(u.ravel()))
        steps = (whole[..., 1:] - whole[..., :-1]) + (part[..., 1:] - part[..., :-1])
        # an erf difference over a few ulps can round below zero
        return np.maximum(steps / self._erf_span, 0.0)
