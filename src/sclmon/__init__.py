"""Monitoring engine for signal convolution logic over piecewise-constant traces.

The windowed operator ``<kernel[T0,T1], p>`` holds at time t when the
kernel-weighted fraction of ``[t+T0, t+T1]`` on which its subformula holds is
at least p; the starred form requires strictly more than p.  This package
provides Boolean monitoring (one event-aligned sliding-window evaluator,
exact for every kernel with no integration step, which the tests check
against a brute-force grid oracle of their own), streaming monitoring,
quantitative robustness, a formula text syntax, trace generators and a CLI.
"""

from .errors import HorizonError, ParseError, SclError, TraceError
from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Conv,
    ConvDual,
    Formula,
    Implies,
    Not,
    Or,
    eventually,
    globally,
    horizon,
    variables,
)
from .kernels import (
    BoundedKernel,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
)
from .monitor import (
    VerdictSignal,
    eval_atom,
    eval_conv_efficient,
    monitor,
)
from .parser import parse, parse_formula_file, pretty_print
from .robustness import RobustnessTrace, rho, rho_trace
from .signals import (
    BooleanSignal,
    PiecewiseConstantSignal,
    boolean_and,
    boolean_not,
    boolean_or,
    restrict_domain,
)
from .streaming import StreamingMonitor
from .traces import (
    GlucoseParams,
    generate_glucose_like,
    generate_sine_quantized,
    generate_step_train,
    read_trace_csv,
    trace_to_csv,
    write_trace_csv,
)

__all__ = [
    "And", "Atom", "BooleanSignal", "BoundedKernel", "Const", "Conv",
    "ConvDual", "ExponentialKernel", "FALSE", "FlatKernel",
    "Formula", "GaussianKernel", "GlucoseParams", "HorizonError", "Implies",
    "Not", "Or", "ParseError", "PiecewiseConstantSignal",
    "RobustnessTrace", "SclError", "StreamingMonitor", "TRUE",
    "TraceError", "VerdictSignal", "boolean_and", "boolean_not", "boolean_or", "eval_atom",
    "eval_conv_efficient", "eventually",
    "generate_glucose_like", "generate_sine_quantized", "generate_step_train",
    "globally", "horizon", "monitor", "parse", "parse_formula_file",
    "pretty_print", "read_trace_csv", "restrict_domain", "rho", "rho_trace",
    "trace_to_csv", "variables", "write_trace_csv",
]

__version__ = "0.1.0"
