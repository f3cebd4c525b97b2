"""Quantitative semantics: how much slack does a verdict have?

The robustness of a formula at time t is the largest uniform shift of the
trace values that provably preserves the verdict: positive means satisfied
with that much margin, negative means violated by that much.  For coverage
operators it is the level r at which the coverage of {values above r} drops
through the threshold: the kernel-weighted quantile of the window's values,
which is always one of those values and is returned exactly.
"""

import numpy as np

from sclmon import (
    Atom,
    Conv,
    FlatKernel,
    PiecewiseConstantSignal,
    monitor,
    parse,
    rho,
)

# A two-level trace: 1.0 for the first 30% of the window, 0.2 afterwards.
trace = PiecewiseConstantSignal(
    ("v",), np.array([0.0, 0.9]), np.array([[1.0], [0.2]]), 3.0)
f = Conv(FlatKernel(0.0, 3.0), 0.3, Atom("v", ">", 0.0))

r = rho(trace, f, 0.0)
print(f"formula: coverage of (v > 0) at 30% over [0,3]")
print(f"robustness at t=0: {r:.6f}")
print("""
Shifting the whole trace down by less than 1.0 keeps 30% of the window above
zero (the first segment), so the verdict survives; at exactly 1.0 that
segment reaches the threshold and the verdict is about to flip.  Check it:
""")
for shift in (0.5, 0.999, 1.001):
    shifted = PiecewiseConstantSignal(
        ("v",), trace.times, trace.values - shift, trace.duration)
    sat = monitor(shifted, f).satisfied_at_zero
    print(f"  shift -{shift:5.3f}: {'still satisfied' if sat else 'violated'}")

# Robustness over time for a longer trace.
rng = np.random.default_rng(4)
times = np.concatenate([[0.0], np.sort(rng.uniform(0, 6, 14))])
values = rng.uniform(-1.0, 1.0, (len(times), 1))
wander = PiecewiseConstantSignal(("v",), times, values, 6.0)
g = parse("<flat[0,2], 0.6> (v >= 0)")
times_out = 0.5 * np.arange(9)          # t = 0, 0.5, ..., 4.0: the horizon ends at 6 - 2
rhos = [rho(wander, g, float(t)) for t in times_out]
print("robustness trace of  <flat[0,2], 0.6> (v >= 0)  on a random walk:")
for t, v in zip(times_out, rhos):
    bar = "#" * int(round(20 * min(abs(v), 1.0)))
    sign = "+" if v >= 0 else "-"
    print(f"  t={t:4.1f}  rho={v:+.4f}  {sign}{bar}")
window_levels = set(values[:, 0].tolist())
exact = all(v in window_levels for v in rhos)
print(f"(every value above is one of the trace's own levels: {exact})")
