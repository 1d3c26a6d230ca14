import math

import numpy as np
import pytest

from meanforce import comparator
from meanforce.comparator import me_state, me_steady_state
from meanforce.errors import NumericsError, ValidationError
from meanforce.special import QuadratureSettings
from meanforce.spectral import BathParams, DiscreteModes, LorentzDrude, _g_batch
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


def _spline_moments_scalar_loop(x, y):
    # Natural-spline moments by the Thomas loop on numpy float64 scalars, one
    # right-hand side at a time: the reference for _CubicSpline's float loop.
    n = len(x)
    h = np.diff(x)
    m = np.zeros(n)
    if n > 2:
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 6.0 * np.diff(np.diff(y) / h)
        upper = h[1:-1].copy()
        lower = h[1:-1].copy()
        for i in range(1, n - 2):
            w = lower[i - 1] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        sol = np.zeros(n - 2)
        sol[-1] = rhs[-1] / diag[-1]
        for i in range(n - 4, -1, -1):
            sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
        m[1:-1] = sol
    return m


def _spline_eval_one_row(x, y, m, t):
    # The one-row spline evaluation the two-row _CubicSpline.__call__ replaces.
    h = np.diff(x)
    j = np.clip(np.searchsorted(x, t) - 1, 0, len(x) - 2)
    hj, d, e = h[j], t - x[j], x[j + 1] - t
    return (
        m[j] * e**3 / (6.0 * hj)
        + m[j + 1] * d**3 / (6.0 * hj)
        + (y[j] / hj - m[j] * hj / 6.0) * e
        + (y[j + 1] / hj - m[j + 1] * hj / 6.0) * d
    )


@pytest.mark.parametrize("n", [2, 3, 4, 65])
def test_spline_moments_match_scalar_loop_and_dense_solve(n):
    tau_max = 16.0
    grid = tau_max * np.linspace(0.0, 1.0, n) ** 2
    g = _g_batch(LD, 1.0, grid, QuadratureSettings())
    g[0] = 0.0
    y = np.stack([g.real, g.imag])
    sp = comparator._CubicSpline(grid, y)
    t = tau_max * np.linspace(0.0, 1.0, 2 * n + 1) ** 2
    vals = sp(t)
    for row, ys in enumerate(y):
        ref = _spline_moments_scalar_loop(grid, ys)
        assert np.array_equal(sp.m[row], ref)
        assert np.array_equal(vals[row], _spline_eval_one_row(grid, ys, ref, t))
        if n > 2:
            # The moment system itself, solved densely.
            h = np.diff(grid)
            a = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
            dense = np.linalg.solve(a, 6.0 * np.diff(np.diff(ys) / h))
            assert np.max(np.abs(ref[1:-1] - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert ref[0] == ref[-1] == 0.0


@pytest.fixture
def cold_memo(monkeypatch):
    # An earlier test may have left a spline for LD at the same key.
    monkeypatch.setattr(comparator, "_last_spline", None)


def test_g_spline_build_evaluates_each_tau_once(monkeypatch, cold_memo):
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


def _counting_builds(monkeypatch):
    builds = []
    build = comparator._build_g_splines

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(comparator, "_build_g_splines", counted)
    return builds


def test_g_spline_reused_across_couplings(monkeypatch, cold_memo):
    # Two couplings of one lambda^2 Q sweep land on the same tau_max, so the
    # second call reuses the first spline and still gives the cold result.
    baths = [BathParams(beta=1.0, lam=math.sqrt(v)) for v in (2.0, 5.0)]
    cold = []
    for bath in baths:
        comparator._last_spline = None
        cold.append(me_steady_state(SPIN, bath, LD))
    comparator._last_spline = None
    builds = _counting_builds(monkeypatch)
    warm = [me_steady_state(SPIN, bath, LD) for bath in baths]
    assert len(builds) == 1
    assert [r.diagnostics["g_spline_reused"] for r in warm] == [False, True]
    assert warm[0].diagnostics["tau_max"] == warm[1].diagnostics["tau_max"]
    for c, w in zip(cold, warm):
        assert np.array_equal(w.coherences, c.coherences)
        assert w.diagnostics["spline_error"] == c.diagnostics["spline_error"]
    grid, sp = comparator._last_spline[2][:2]
    assert not (grid.flags.writeable or sp.y.flags.writeable or sp.m.flags.writeable)


@pytest.mark.parametrize(
    "change",
    [
        {"bath": BathParams(beta=1.1, lam=math.sqrt(5.0))},
        {"q": QuadratureSettings(rel_tol=1e-9)},
        {"sd": LorentzDrude(1.0, 0.25)},  # equal to LD, but another object
    ],
    ids=["beta", "settings", "density"],
)
def test_g_spline_key_change_misses(monkeypatch, cold_memo, change):
    base = {"bath": BathParams(beta=1.0, lam=math.sqrt(5.0)), "sd": LD, "q": None}
    builds = _counting_builds(monkeypatch)
    me_steady_state(SPIN, base["bath"], base["sd"], base["q"])
    args = {**base, **change}
    res = me_steady_state(SPIN, args["bath"], args["sd"], args["q"])
    assert len(builds) == 2
    assert res.diagnostics["g_spline_reused"] is False


def test_g_fault_surfaces_after_memo_filled(monkeypatch, cold_memo):
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me_steady_state(SPIN, bath, LD)

    def broken(sd, beta, tau, settings):
        raise NumericsError("injected G fault")

    monkeypatch.setattr(comparator, "_g_batch", broken)
    for b in (bath, BathParams(beta=1.3, lam=math.sqrt(5.0))):
        with pytest.raises(NumericsError, match="injected G fault"):
            me_steady_state(SPIN, b, LD)


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
