"""The Dawson integral across its implementation regimes.

dawson() switches at |x| = 1 (series), 6 (sampled exponentials), and beyond
(asymptotic series). The printed columns compare against slow direct
quadrature so regime seams are visible if they exist.
"""

import numpy as np

from meanforce.special import dawson, integrate_finite
from meanforce.svg import render_line_plot

print(f"{'x':>6} {'dawson':>22} {'quadrature':>22} {'diff':>10}")
for x in (0.2, 0.9, 1.1, 3.0, 5.9, 6.1, 12.0, 40.0):
    ref = integrate_finite(
        lambda s: np.exp(-np.asarray(s) * (2.0 * x - np.asarray(s))), 0.0, x
    ).value
    d = dawson(x)
    print(f"{x:6.1f} {d:22.16g} {ref:22.16g} {abs(d - ref):10.2e}")

xs = np.linspace(0.01, 10.0, 400)
dv = np.array([dawson(float(x)) for x in xs])
with open("dawson_regimes.svg", "w") as fh:
    fh.write(render_line_plot(
        [("dawson", xs, dv), ("1/(2x) tail", xs, 1.0 / (2.0 * xs))],
        title="Dawson integral and its large-x tail",
        x_label="x", y_label="D(x)",
    ))
print("\nwrote dawson_regimes.svg")
