"""Kernels and the coverage value H.

A bounded kernel assigns a positive weight to every instant of its window
and integrates to one over it.  Convolving a kernel with a Boolean signal
gives H(t): the kernel-weighted fraction of the window [t+T0, t+T1] on which
the signal is true.  A flat kernel measures plain fraction-of-time; an
exponential kernel concentrates the weight at one end of the window.
"""

import numpy as np

from sclmon import (
    BooleanSignal,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
)

flat = FlatKernel(0.0, 0.5)
rising = ExponentialKernel(3.0, 0.0, 0.5)     # weight grows toward the window end
falling = ExponentialKernel(-3.0, 0.0, 0.5)   # weight decays from the window start
bump = GaussianKernel(0.25, 0.1, 0.0, 0.5)    # weight bunched mid-window

print("densities at a few window points:")
for name, k in [("flat", flat), ("exp(+3)", rising), ("exp(-3)", falling),
                ("gauss", bump)]:
    xs = [0.0, 0.125, 0.25, 0.375, 0.5]
    row = "  ".join(f"{k.density_clipped(x):6.3f}" for x in xs)
    print(f"  {name:8s} {row}   (full-window mass = {k.mass(0.0, 0.5):.12f})")

# A signal true on [0.3, 0.9] only: the window [0, 0.5] anchored at t=0
# overlaps the true region on its back 40%.
sig = BooleanSignal.from_intervals(0.0, 1.5, [(0.3, 0.9)])


def coverage(k, t):
    """H(t): kernel mass of the window pieces where ``sig`` is true."""
    def clip(x):
        return min(max(x, k.lower), k.upper)
    return sum(k.mass(clip(s - t), clip(e - t)) for s, e in sig.intervals)


print("\ncoverage H(0) of the true-interval [0.3, 0.9] seen from t=0:")
for name, k in [("flat", flat), ("exp(+3)", rising), ("exp(-3)", falling)]:
    h = coverage(k, 0.0)
    verdict = "accepts" if h >= 0.5 else "rejects"
    print(f"  {name:8s} H(0) = {h:.4f}  -> threshold 0.5 {verdict}")

print("""
The flat kernel sees 40% coverage; the rising exponential, which cares about
the end of the window (where the signal is true), sees 58%; the falling one
sees 24%.  Only the rising kernel accepts at threshold 0.5 -- same signal,
three different judgements about *when* truth matters.
""")

print("H(t) swept over the verdict domain (flat kernel):")
ts = np.linspace(0.0, 1.0, 11)
hs = [coverage(flat, float(t)) for t in ts]
print("  t:", "  ".join(f"{t:4.1f}" for t in ts))
print("  H:", "  ".join(f"{h:4.2f}" for h in hs))
