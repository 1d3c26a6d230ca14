"""The benchmark's three workloads: seeded parameters, program calls, plain outputs.

``params`` turns a seed into plain numbers (numpy only, no meanforce), so the
reference checks in ``checks.py`` see exactly the inputs the program saw.
``build`` imports meanforce and makes the program's inputs from those numbers
(this is the set-up that ``setup_s`` times); it returns the round: a callable
that calls the program once per sweep point and returns its outputs as
JSON-ready data, with the operations failed and attempted.

The seed perturbs values, never the shape of the work: grids keep their
length, the multilevel gaps and coupling eigenvalues move by a few percent,
and the Fock cutoff is fixed.  The cost of a round therefore depends on the
commit and the machine, not on the seed.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

WORKLOADS = ("me-lambda-sweep", "multilevel-beta-sweep", "oracle-crosscheck")


def params(workload: str, seed: int) -> dict:
    """Seeded inputs of one workload as plain numbers and lists."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "me-lambda-sweep":
        # fig1a: lambda^2 Q over [0.2, 10], delta 0.7, beta 1, omega_c 0.25.
        return {
            "lo": 0.2 * (1.0 + 0.05 * rng.random()),
            "hi": 10.0 * (1.0 - 0.02 * rng.random()),
            "points": 5,
            "delta": 0.7, "beta": 1.0, "omega_c": 0.25,
            "methods": ["high-t", "series", "me"],
        }
    if workload == "multilevel-beta-sweep":
        a = np.array([-1.5, -0.5, 0.5, 1.5]) + rng.uniform(-0.05, 0.05, 4)
        h = np.diag([0.4, -0.3, 0.2, -0.1] + rng.uniform(-0.02, 0.02, 4)).astype(complex)
        iu = np.triu_indices(4, 1)
        h[iu] = 0.25 * np.exp(2j * math.pi * rng.random(len(iu[0])))
        h = np.triu(h, 1).conj().T + h
        return {
            "a": a.tolist(), "h_re": h.real.tolist(), "h_im": h.imag.tolist(),
            "betas": (np.array([0.5, 1.0, 2.0]) * (1.0 + rng.uniform(-0.02, 0.02, 3))).tolist(),
            "lambda2q": 2.0, "omega_c": 0.25,
        }
    if workload == "oracle-crosscheck":
        # Criterion 7's bath (3 midpoint modes of Lorentz-Drude on [0, 3]) at a
        # Fock cutoff that keeps the dense dimension at 2 * 10^3.
        return {
            "lambda2qs": (np.array([1.0, 2.0]) * (1.0 + rng.uniform(-0.03, 0.03, 2))).tolist(),
            "n_modes": 3, "omega_max": 3.0, "omega_c": 0.25, "fock_cutoff": 9,
            "delta": 0.7, "beta": 1.0,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


class PointClock:
    """Wall time per sweep point; also tells the tracer which point is running."""

    def __init__(self, tracer=None):
        self.times: list[float] = []
        self.tracer = tracer

    @contextmanager
    def point(self):
        if self.tracer is not None:
            self.tracer.point = len(self.times)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times.append(time.perf_counter() - start)


def _cmat(m) -> list:
    m = np.asarray(m)
    return [np.real(m).tolist(), np.imag(m).tolist()]


def build(workload: str, p: dict):
    """Program inputs for one workload; returns ``round(clock)``."""
    return _BUILDERS[workload](p)


def _me_lambda_sweep(p):
    from meanforce import cli
    from meanforce.steady import RenormalizationConvention

    spec = cli.SweepSpec(
        swept="lambda2Q", lo=p["lo"], hi=p["hi"], points=p["points"],
        delta=p["delta"], beta=p["beta"], omega_c=p["omega_c"], lambda2q=1.0,
        spectral="lorentz-drude", methods=tuple(p["methods"]),
        convention=RenormalizationConvention.RENORMALIZED,
    )

    def round_(clock):
        # Time each point at cli's own per-point boundary; run_sweep looks it
        # up as a module global at call time.
        inner = cli._evaluate_point

        def timed(*args, **kwargs):
            with clock.point():
                return inner(*args, **kwargs)

        cli._evaluate_point = timed
        try:
            csv_text = cli.run_sweep(spec)
        finally:
            cli._evaluate_point = inner
        rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
        failed = sum(row.count("NA") // 5 for row in rows)
        return [csv_text], failed, p["points"] * len(p["methods"])

    return round_


def _attempt(fn):
    """The method's result, or None when it raises (counted as a failed operation)."""
    from meanforce.errors import MeanForceError

    try:
        return fn()
    except MeanForceError:
        return None


def _count_failed(out: list) -> int:
    return sum(v is None for point in out for v in point.values())


def _multilevel_beta_sweep(p):
    from meanforce import spectral, steady

    h = np.array(p["h_re"]) + 1j * np.array(p["h_im"])
    system = steady.SystemSpec(h, np.diag(p["a"]))
    sd = spectral.LorentzDrude(1.0, p["omega_c"])
    lam = math.sqrt(p["lambda2q"])
    baths = [spectral.BathParams(beta, lam) for beta in p["betas"]]
    natural = steady.RenormalizationConvention.NATURAL

    def round_(clock):
        out = [_multilevel_point(clock, system, bath, sd, natural) for bath in baths]
        return out, _count_failed(out), 4 * len(baths)

    return round_


def _multilevel_point(clock, system, bath, sd, natural):
    from meanforce import comparator, steady

    point = {}
    with clock.point():
        for m in ("exact", "high-t", "series"):
            res = _attempt(
                lambda: steady.steady_state(system, bath, sd, steady.CorrectionMethod(m), natural)
            )
            point[m] = res and {
                "p": res.populations.tolist(), "f": res.f_values.tolist(),
                "state": _cmat(res.state.entries),
            }
        res = _attempt(lambda: comparator.me_steady_state(system, bath, sd))
        point["me"] = res and {
            "p": res.populations.tolist(),
            "state": _cmat(comparator.me_state(system, res).entries),
        }
    return point


def _oracle_crosscheck(p):
    from meanforce import oracle, spectral, steady
    from meanforce.spinboson import SpinBosonParams, build_system

    system = build_system(SpinBosonParams(1.0, p["delta"]))
    base = oracle.discretize(spectral.LorentzDrude(1.0, p["omega_c"]), p["n_modes"], p["omega_max"])
    bd = oracle.BathDiscretization(base.modes, fock_cutoff=p["fock_cutoff"])
    dm = spectral.DiscreteModes(base.modes)
    q_disc = oracle.reorganization_sum(base)
    baths = [spectral.BathParams(p["beta"], math.sqrt(l2q / q_disc)) for l2q in p["lambda2qs"]]

    def round_(clock):
        out = []
        for bath in baths:
            with clock.point():
                ex = _attempt(lambda: oracle.exact_mean_force_state(system, bd, bath))
                first = _attempt(lambda: steady.steady_state(system, bath, dm))
                zeroth = _attempt(lambda: steady.zeroth_order_state(system, bath, sd=dm))
            out.append({
                "oracle": ex and {
                    "state": _cmat(ex.state.entries),
                    "convergence": [list(row) for row in ex.convergence],
                    "fock_cutoff": ex.fock_cutoff,
                },
                "exact": first and {"state": _cmat(first.state.entries)},
                "zeroth": zeroth and {"state": _cmat(zeroth.entries)},
            })
        return out, _count_failed(out), 3 * len(baths)

    return round_


_BUILDERS = {
    "me-lambda-sweep": _me_lambda_sweep,
    "multilevel-beta-sweep": _multilevel_beta_sweep,
    "oracle-crosscheck": _oracle_crosscheck,
}
