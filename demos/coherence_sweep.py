"""Steady-state coherence against coupling strength, three routes at once.

Reproduces the fig1a preset through the library API rather than the CLI:
c_ss drains away as lambda^2 Q grows, and the closed-form series tracks the
Dawson form once the coupling dominates the splitting.
"""

import math

import numpy as np

from meanforce.comparator import me_steady_state
from meanforce.spectral import BathParams, LorentzDrude
from meanforce.spinboson import SpinBosonParams, build_system, observables
from meanforce.steady import CorrectionMethod, steady_state
from meanforce.svg import render_line_plot

params = SpinBosonParams(epsilon=1.0, delta=0.7)
system = build_system(params)
sd = LorentzDrude(1.0, 0.25)
grid = np.linspace(0.2, 10.0, 50)

curves = {"high-t": [], "series": [], "me": []}
for lam2q in grid:
    bath = BathParams(beta=1.0, lam=math.sqrt(float(lam2q)))
    ht = steady_state(system, bath, sd, method=CorrectionMethod.HIGH_TEMPERATURE_DAWSON)
    se = steady_state(system, bath, sd, method=CorrectionMethod.ULTRASTRONG_SERIES)
    me = me_steady_state(system, bath, sd).state
    curves["high-t"].append(observables(ht.state, params).c_ss.real)
    curves["series"].append(observables(se.state, params).c_ss.real)
    curves["me"].append(observables(me, params).c_ss.real)

with open("coherence_sweep.csv", "w") as fh:
    fh.write("lambda2Q,high_t,series,me\n")
    for i, v in enumerate(grid):
        fh.write(f"{v:.17g},{curves['high-t'][i]:.17g},"
                 f"{curves['series'][i]:.17g},{curves['me'][i]:.17g}\n")

series = [(name, grid, np.array(vals)) for name, vals in curves.items()]
with open("coherence_sweep.svg", "w") as fh:
    fh.write(render_line_plot(series, title="c_ss vs coupling, beta = 1",
                              x_label="lambda^2 Q", y_label="Re c_ss"))

i_max = int(np.argmax(np.abs(np.array(curves["me"]))))
print(f"largest |c_ss| = {abs(curves['me'][i_max]):.5f} at lambda^2 Q = {grid[i_max]:.2f}")
print("wrote coherence_sweep.csv, coherence_sweep.svg")
