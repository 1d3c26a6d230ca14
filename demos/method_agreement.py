"""How far apart the four coherence routes sit at one working point.

Exact quadrature is the in-package reference; the master-equation route is an
independent derivation that lands on the same number, which is the strongest
internal consistency check the package has.
"""

import math

from meanforce.comparator import me_steady_state
from meanforce.spectral import BathParams, LorentzDrude
from meanforce.spinboson import SpinBosonParams, build_system, observables
from meanforce.steady import CorrectionMethod, steady_state

params = SpinBosonParams(epsilon=1.0, delta=0.7)
system = build_system(params)

print(f"{'omega_c':>8} {'lam2Q':>6} {'exact':>12} {'high-t':>12} "
      f"{'series':>12} {'me':>12} {'me vs exact':>12}")
for omega_c in (0.1, 0.25, 0.5):
    sd = LorentzDrude(1.0, omega_c)
    for lam2q in (2.0, 5.0):
        bath = BathParams(beta=1.0, lam=math.sqrt(lam2q))
        values = {}
        for m in CorrectionMethod:
            res = steady_state(system, bath, sd, method=m)
            values[m.value] = observables(res.state, params).c_ss.real
        me = me_steady_state(system, bath, sd).state
        values["me"] = observables(me, params).c_ss.real
        gap = abs(values["me"] / values["exact"] - 1.0)
        print(f"{omega_c:8.2f} {lam2q:6.1f} {values['exact']:12.8f} "
              f"{values['high-t']:12.8f} {values['series']:12.8f} "
              f"{values['me']:12.8f} {gap:12.2e}")

print("\nhigh-t drifts with omega_c * beta; me stays on the exact value.")
