"""Bounded kernels over a window ``[lower, upper]``.

Every kernel integrates to one over its window and is strictly positive on
the open window.  Window integrals are closed-form (flat and exponential via
``expm1``, the Gaussian bump via ``erf``), so kernel error is negligible
against all monitor tolerances; the test suite cross-checks them against
adaptive quadrature.

New shapes can be added by subclassing :class:`BoundedKernel` and
implementing ``density_clipped``, ``mass_clipped`` and ``sup_density``;
everything else (weighted integrals, window checks) is inherited.  The
formula file grammar only covers the three shapes below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import HorizonError, SclError
from .signals import BooleanSignal

_MAX_EXPONENT = 700.0  # exp overflow guard for exponential kernels


class BoundedKernel:
    """Shared behaviour for all kernel shapes (window checks, convolution)."""

    lower: float
    upper: float

    # -- shape interface -------------------------------------------------
    def density_clipped(self, x):
        """Normalized density; assumes x already inside the window."""
        raise NotImplementedError

    def mass_clipped(self, a, b):
        """Window integral over [a, b]; assumes window containment, a <= b."""
        raise NotImplementedError

    def sup_density(self) -> float:
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

    def density(self, x: float) -> float:
        if x < self.lower or x > self.upper:
            raise SclError(
                f"kernel evaluated at {x} outside window [{self.lower}, {self.upper}]"
            )
        return float(self.density_clipped(x))

    def mass(self, a: float, b: float) -> float:
        if b < a:
            raise SclError(f"reversed integration bounds: [{a}, {b}]")
        if a < self.lower - 1e-12 or b > self.upper + 1e-12:
            raise SclError(
                f"integration bounds [{a}, {b}] outside window [{self.lower}, {self.upper}]"
            )
        a = min(max(a, self.lower), self.upper)
        b = min(max(b, self.lower), self.upper)
        return float(self.mass_clipped(a, b))

    def weighted_integral(self, sig: BooleanSignal, t: float) -> float:
        """Kernel-weighted true time of ``sig`` over the window anchored at t."""
        lo, hi = t + self.lower, t + self.upper
        eps = 1e-9 * max(1.0, abs(sig.start), abs(sig.end))
        if lo < sig.start - eps or hi > sig.end + eps:
            raise HorizonError(
                f"window [{lo}, {hi}] reaches outside signal domain "
                f"[{sig.start}, {sig.end}]"
            )
        if not sig.intervals:
            return 0.0
        a = np.clip(sig.starts_array - t, self.lower, self.upper)
        b = np.clip(sig.ends_array - t, self.lower, self.upper)
        masses = np.asarray(self.mass_clipped(a, b))
        # summing only nonzero terms keeps the result independent of how many
        # intervals lie entirely outside the window (bit-stable under trace
        # extension, which the streaming facade relies on)
        return float(np.sum(masses[masses != 0.0]))

    def weighted_integral_many(self, sig: BooleanSignal, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`weighted_integral` over an array of anchors."""
        ts = np.asarray(ts, dtype=float)
        if len(ts) == 0:
            return np.zeros(0)
        eps = 1e-9 * max(1.0, abs(sig.start), abs(sig.end))
        if ts.min() + self.lower < sig.start - eps or ts.max() + self.upper > sig.end + eps:
            raise HorizonError(
                "some window reaches outside the signal domain "
                f"[{sig.start}, {sig.end}]"
            )
        if not sig.intervals:
            return np.zeros(len(ts))
        a = np.clip(sig.starts_array[:, None] - ts[None, :], self.lower, self.upper)
        b = np.clip(sig.ends_array[:, None] - ts[None, :], self.lower, self.upper)
        masses = np.asarray(self.mass_clipped(a, b))
        # drop interval rows that never intersect any window: keeps the sums
        # bit-stable when a longer trace appends out-of-reach intervals
        masses = masses[masses.any(axis=1)]
        return masses.sum(axis=0) if len(masses) else np.zeros(len(ts))


@dataclass(frozen=True)
class FlatKernel(BoundedKernel):
    """Uniform weight: every instant of the window counts the same."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        self._validate_window()

    def density_clipped(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / self.width) if np.ndim(x) else 1.0 / self.width

    def mass_clipped(self, a, b):
        return (np.asarray(b, dtype=float) - a) / self.width

    def sup_density(self) -> float:
        return 1.0 / self.width


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

    def mass_clipped(self, a, b):
        r = self.rate
        den = math.expm1(r * self.width)
        return (np.expm1(r * (np.asarray(b, dtype=float) - self.lower))
                - np.expm1(r * (np.asarray(a, dtype=float) - self.lower))) / den

    def sup_density(self) -> float:
        at = self.upper if self.rate > 0 else self.lower
        return float(self.density_clipped(at))


@dataclass(frozen=True)
class GaussianKernel(BoundedKernel):
    """Gaussian bump ``exp(-((x - center)/spread)^2)`` renormalized.

    Extreme windows (|x - center| >> spread) underflow to zero density;
    the window masses remain well defined.
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
        if self._erf_span() <= 0.0:
            raise SclError(
                f"gaussian bump at {self.center}+-{self.spread} carries no "
                f"representable mass inside [{self.lower}, {self.upper}]"
            )

    def _u(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.spread

    def _erf_span(self) -> float:
        return float(erf(self._u(self.upper)) - erf(self._u(self.lower)))

    def density_clipped(self, x):
        z = self.spread * (math.sqrt(math.pi) / 2.0) * self._erf_span()
        return np.exp(-self._u(x) ** 2) / z

    def mass_clipped(self, a, b):
        return (erf(self._u(b)) - erf(self._u(a))) / self._erf_span()

    def sup_density(self) -> float:
        peak = min(max(self.center, self.lower), self.upper)
        return float(self.density_clipped(peak))

