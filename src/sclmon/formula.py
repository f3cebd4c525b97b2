"""Formula AST: atoms, Boolean connectives and the windowed convolution operator.

The convolution operator ``Conv(kernel, threshold, child)`` holds at time t
when the kernel-weighted fraction of its window on which ``child`` holds is
at least ``threshold``.  ``ConvDual`` is its dual (strict ``>`` comparison),
equivalent to ``Not(Conv(kernel, 1 - threshold, Not(child)))``.

``globally``/``eventually`` are flat-kernel abbreviations with thresholds 1
and 0; ``And``/``Implies`` are kept as AST nodes so formulas print the way
they were written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import HorizonError, SclError
from .kernels import BoundedKernel, ExponentialKernel, FlatKernel, GaussianKernel

_COMPARISONS = (">=", "<=", ">", "<")


@dataclass(frozen=True)
class Const:
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Atom:
    """Threshold comparison on one trace variable, e.g. ``G >= 70``.

    Over a piecewise-constant trace the forms differ on segments held exactly
    at the threshold: there a strict atom is false and a non-strict one true.
    Robustness uses the same signed distance for both, which is 0 there.
    """

    variable: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise SclError(f"unknown comparison {self.op!r}; use one of {_COMPARISONS}")
        if not math.isfinite(self.threshold):
            raise SclError(f"atom threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


def _check_conv_args(kernel: BoundedKernel, threshold: float) -> None:
    if not isinstance(kernel, (FlatKernel, ExponentialKernel, GaussianKernel)):
        raise SclError(f"convolution kernel must be a FlatKernel, ExponentialKernel or "
                       f"GaussianKernel, got {type(kernel).__name__}")
    if not (0.0 <= threshold <= 1.0):
        raise SclError(f"convolution threshold must be in [0, 1], got {threshold}")
    if kernel.lower < 0:
        raise SclError(
            f"convolution windows must look forward (lower bound >= 0), "
            f"got [{kernel.lower}, {kernel.upper}]"
        )


@dataclass(frozen=True)
class Conv:
    """Kernel-weighted coverage of the child is ``>= threshold``."""

    kernel: BoundedKernel
    threshold: float
    child: "Formula"

    def __post_init__(self) -> None:
        _check_conv_args(self.kernel, self.threshold)


@dataclass(frozen=True)
class ConvDual:
    """Kernel-weighted coverage of the child is strictly ``> threshold``."""

    kernel: BoundedKernel
    threshold: float
    child: "Formula"

    def __post_init__(self) -> None:
        _check_conv_args(self.kernel, self.threshold)


Formula = Union[Const, Atom, Not, Or, And, Implies, Conv, ConvDual]


def globally(lower: float, upper: float, child: Formula) -> Conv:
    """True at t iff the child holds throughout ``[t+lower, t+upper]``."""
    return Conv(FlatKernel(lower, upper), 1.0, child)


def eventually(lower: float, upper: float, child: Formula) -> ConvDual:
    """True at t iff the child holds somewhere in ``[t+lower, t+upper]``."""
    return ConvDual(FlatKernel(lower, upper), 0.0, child)


def horizon(f: Formula) -> float:
    """Minimal trace duration needed to evaluate ``f`` at time 0."""
    return 0.0 - _end(f, 0.0)


def _end(f: Formula, duration: float) -> float:
    match f:
        case Const() | Atom():
            return duration
        case Not(child):
            return _end(child, duration)
        case Or(left, right) | And(left, right) | Implies(left, right):
            return min(_end(left, duration), _end(right, duration))
        case Conv(kernel, _, child) | ConvDual(kernel, _, child):
            return _end(child, duration) - kernel.upper
    raise SclError(f"not a formula: {f!r}")


def evaluable_end(f: Formula, duration: float) -> float:
    """Last time at which ``f`` can be evaluated on a trace over ``[0, duration]``.

    Atoms and constants end at ``duration``, ``!`` where its child ends, a
    connective at the earlier of its operands' ends and a window node one
    ``kernel.upper`` before its child's end: the same operations, in the same
    order, by which the monitor spans each node, so its verdict ends at this
    very double.  A shortfall within 1e-12 ends at 0; a larger one raises
    :class:`HorizonError`.
    """
    end = _end(f, float(duration))
    if end < -1e-12:
        needed = horizon(f)
        raise HorizonError(
            f"formula horizon {needed:.6g} exceeds trace duration "
            f"{duration:.6g} by {needed - duration:.6g}"
        )
    return max(end, 0.0)


def variables(f: Formula) -> tuple[str, ...]:
    """Trace variables referenced by the formula, in first-use order."""
    seen: list[str] = []

    def walk(g: Formula) -> None:
        match g:
            case Atom(variable, _, _):
                if variable not in seen:
                    seen.append(variable)
            case Const():
                pass
            case Not(child) | Conv(_, _, child) | ConvDual(_, _, child):
                walk(child)
            case Or(left, right) | And(left, right) | Implies(left, right):
                walk(left)
                walk(right)

    walk(f)
    return tuple(seen)
