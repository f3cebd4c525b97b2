"""Boolean monitoring with the coverage operator.

The formula `<flat[0,24], 0.125> (v >= 180)` holds at time t when the value
is at/above 180 for at least 12.5% of [t, t+24] -- three hours of a day.
Plain windowed-always (G) cannot express "for at least 3h"; it only knows
"for all of it".  We monitor both on a pulse train that is high exactly
12.5% of every day.
"""

from sclmon import (
    eval_conv_efficient,
    FlatKernel,
    eval_atom,
    monitor,
    parse,
    generate_step_train,
)

trace = generate_step_train(period=24.0, duty=0.125, duration=48.0,
                            low=100.0, high=200.0, variable="v")

tolerant = parse("<flat[0,24], 0.125> (v >= 180)")
strict = parse("G[0,24] (v >= 180)")

for name, f in [("coverage >= 12.5%", tolerant), ("windowed always", strict)]:
    verdict = monitor(trace, f)
    state = "satisfied" if verdict.satisfied_at_zero else "violated"
    print(f"{name:18s} -> {state} at t=0; true on {verdict.signal.intervals}")

print("""
The coverage verdict is true everywhere (every 24h window contains exactly
3h of high signal, and the comparison is non-strict), while windowed-always
fails immediately.  The strict variant `<...>*` demands coverage *above*
12.5% and is false everywhere on this knife-edge trace:""")

strict_cov = parse("<flat[0,24], 0.125>* (v >= 180)")
print("  strict coverage  ->",
      "satisfied" if monitor(trace, strict_cov).satisfied_at_zero else "violated")

# Under the hood: the evaluator splits the verdict span at the events where a
# window boundary meets a signal edge.  Within one stretch between events a
# flat window's coverage H is linear, so it is sampled at the stretch bounds
# only and each threshold crossing is solved in closed form.
from sclmon import Atom

sig = eval_atom(trace, Atom("v", ">=", 180.0))
kernel = FlatKernel(0.0, 24.0)
eff = eval_conv_efficient(kernel, 0.13, sig)
print(f"\nat threshold 13% the verdict flips to false:")
print(f"  true on {eff.verdict.signal.intervals}")
print(f"  {len(eff.bounds)} stretch bounds, H sampled at {len(eff.times)} times: "
      f"{[round(h, 4) for h in eff.values[:6].tolist()]} ...")
print(f"  crossings: {[round(c, 6) for c in eff.verdict.crossings[:6]]} ...")
