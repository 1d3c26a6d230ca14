"""The Dawson integral across its regimes: D(x) ~ x near 0, the maximum near
x = 0.924, and the 1/(2x) tail.

dawson() is one sampled-exponential sum (Rybicki's) at every x, with no
switch between formulas. It shifts x by x' to the nearest lattice point
0, 0.5, 1, ...; |x'| is largest halfway between them (x = 0.25, 2.75). The
printed columns compare it with slow direct quadrature of the defining
integral at such points, at the maximum, and far into the tail.
"""

import numpy as np

from meanforce.special import dawson, integrate_finite
from meanforce.svg import render_line_plot

print(f"{'x':>8} {'dawson':>22} {'quadrature':>22} {'diff':>10}")
for x in (1e-8, 0.2, 0.25, 0.924, 2.75, 5.0, 12.0, 40.0):
    ref = integrate_finite(
        lambda s: np.exp(-np.asarray(s) * (2.0 * x - np.asarray(s))), 0.0, x
    ).value
    d = dawson(x)
    print(f"{x:8.3g} {d:22.16g} {ref:22.16g} {abs(d - ref):10.2e}")

xs = np.linspace(0.01, 10.0, 400)
with open("dawson_regimes.svg", "w") as fh:
    fh.write(render_line_plot(
        [("dawson", xs, dawson(xs)), ("1/(2x) tail", xs, 1.0 / (2.0 * xs))],
        title="Dawson integral and its large-x tail",
        x_label="x", y_label="D(x)",
    ))
print("\nwrote dawson_regimes.svg")
