import math

import numpy as np
import pytest

from meanforce import comparator
from meanforce.comparator import me_state, me_steady_state
from meanforce.errors import NumericsError, ValidationError
from meanforce.spectral import BathParams, DiscreteModes, LorentzDrude
from meanforce.spinboson import SpinBosonParams, build_system
from meanforce.steady import (
    CorrectionMethod,
    RenormalizationConvention,
    SystemSpec,
    steady_state,
    zeroth_order_state,
)

SPIN = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
LD = LorentzDrude(1.0, 0.25)


def a_basis_coherence(res_state, sys):
    v = sys.a_eigenvectors
    return (v.conj().T @ res_state.entries @ v)[0, 1]


def test_me_matches_exact_quadrature_route():
    # Two independent routes to the same first-order coherence: the
    # imaginary-time kernel integral and the real-time phase integral.
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me = me_steady_state(SPIN, bath, LD)
    ex = steady_state(SPIN, bath, LD, method=CorrectionMethod.EXACT_QUADRATURE)
    c_me = me.coherences[0, 1]
    c_ex = a_basis_coherence(ex.state, SPIN)
    assert abs(c_me / c_ex - 1.0) < 1e-9
    assert abs(c_me.imag) < 1e-13


def test_me_populations_are_bare_gap_gibbs():
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me = me_steady_state(SPIN, bath, LD)
    zero = zeroth_order_state(
        SPIN, bath, conv=RenormalizationConvention.NATURAL, sd=LD
    )
    v = SPIN.a_eigenvectors
    diag = np.real(np.diag(v.conj().T @ zero.entries @ v))
    assert np.allclose(me.populations, diag, atol=1e-12)
    assert me.populations.sum() == pytest.approx(1.0, abs=1e-12)


def test_me_dawson_form_deviation_grows_with_cutoff():
    # The parabolic-kernel (Dawson) steady state drifts away from the
    # master-equation value as omega_c*beta grows: measured 0.9%, 2.1%, 4.2%.
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    devs = []
    for wc in (0.1, 0.25, 0.5):
        sd = LorentzDrude(1.0, wc)
        me = me_steady_state(SPIN, bath, sd)
        ht = steady_state(SPIN, bath, sd, method=CorrectionMethod.HIGH_TEMPERATURE_DAWSON)
        devs.append(abs(a_basis_coherence(ht.state, SPIN) / me.coherences[0, 1] - 1.0))
    assert devs[0] < devs[1] < devs[2]
    assert devs[0] < 0.012
    assert devs[1] < 0.025
    assert devs[2] < 0.05


def test_zero_h_element_gives_exactly_zero_coherence():
    h = np.array(
        [[0.5, 0.0, 0.3], [0.0, 0.1, 0.2], [0.3, 0.2, -0.4]], dtype=float
    )
    sys = SystemSpec(h, np.diag([-1.0, 0.2, 1.0]))
    bath = BathParams(beta=1.0, lam=1.2)
    me = me_steady_state(sys, bath, LD)
    assert me.coherences[0, 1] == 0.0 + 0.0j
    assert me.coherences[0, 2] != 0.0
    assert me.coherences[1, 2] != 0.0


def test_me_coherence_matrix_hermitian_zero_diagonal():
    bath = BathParams(beta=0.8, lam=1.5)
    me = me_steady_state(SPIN, bath, LD)
    c = me.coherences
    assert np.array_equal(c, c.conj().T)
    assert np.all(np.diag(c) == 0.0)


def test_me_diagnostics_and_truncation():
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me = me_steady_state(SPIN, bath, LD)
    d = me.diagnostics
    assert d["tau_grid_nodes"] >= 65
    assert d["spline_error"] <= 1e-8
    assert me.truncation_tau > 0.0
    assert me.truncation_tau <= d["tau_max"]
    pair = d["per_pair"][(0, 1)]
    assert pair["tau_star"] == me.truncation_tau
    assert pair["error_estimate"] < 1e-8
    assert pair["evaluations"] > 0
    assert pair["tail_bound"] < 1e-20


def test_g_spline_build_evaluates_each_tau_once(monkeypatch):
    # Each doubling reuses the previous grid and the probes become its new
    # nodes, so one build evaluates the final grid plus one probe per cell.
    inside, taus = [], []
    g_batch, build = comparator._g_batch, comparator._build_g_splines

    def counting_g_batch(sd, beta, tau, settings):
        if inside:
            taus.extend(np.asarray(tau).tolist())
        return g_batch(sd, beta, tau, settings)

    def marked_build(*args):
        inside.append(True)
        try:
            return build(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(comparator, "_g_batch", counting_g_batch)
    monkeypatch.setattr(comparator, "_build_g_splines", marked_build)
    me = me_steady_state(SPIN, BathParams(beta=1.0, lam=math.sqrt(5.0)), LD)
    nodes = me.diagnostics["tau_grid_nodes"]
    assert nodes > comparator._GRID_START_NODES
    assert len(set(taus)) == len(taus) == 2 * nodes - 1


def test_me_state_assembly():
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me = me_steady_state(SPIN, bath, LD)
    rho = me_state(SPIN, me)
    assert rho.dim == 2
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho.entries, rho.entries.conj().T, atol=1e-15)
    ht = steady_state(SPIN, bath, LD, method=CorrectionMethod.HIGH_TEMPERATURE_DAWSON)
    # same populations, nearby coherences
    assert np.allclose(
        np.diag(rho.entries).real, np.diag(ht.state.entries).real, atol=1e-3
    )


def test_me_rejects_lambda_zero():
    with pytest.raises(ValidationError):
        me_steady_state(SPIN, BathParams(beta=1.0, lam=0.0), LD)


def test_me_rejects_purely_discrete_bath():
    # Re G is bounded for a finite mode set, so the phase never decays.
    sd = DiscreteModes([(0.5, 1.0), (0.3, 2.2)])
    with pytest.raises(NumericsError, match="stopped growing"):
        me_steady_state(SPIN, BathParams(beta=1.0, lam=1.0), sd)
