import math

import numpy as np
import pytest

from meanforce import comparator
from meanforce.comparator import me_state, me_steady_state
from meanforce.errors import NumericsError, ValidationError
from meanforce.special import QuadratureSettings
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
    assert d["table_error"] <= comparator._SPLINE_TOL
    assert me.truncation_tau > 0.0
    assert me.truncation_tau <= d["tau_max"]
    pair = d["per_pair"][(0, 1)]
    assert pair["tau_star"] == me.truncation_tau
    assert pair["error_estimate"] < 1e-8
    assert pair["evaluations"] > 0
    assert pair["tail_bound"] < 1e-20


def _table(values, n=65, tau_max=16.0):
    # A G table whose rows are the given functions of s on n grid nodes.
    grid = tau_max * np.linspace(0.0, 1.0, n) ** 3
    s = np.cbrt(grid / tau_max)
    return grid, comparator._GTable(grid, np.stack([f(s) for f in values]))


def test_g_table_reads_its_nodes_exactly():
    # tau_max is no power of two, so cbrt(tau / tau_max) misses some nodes' s.
    grid, table = _table([np.cos, np.sin], tau_max=18.3)
    assert np.array_equal(table(grid), table.y)


def test_g_table_reproduces_degree_7_polynomial_in_s():
    # 8-point Lagrange interpolation is exact on degree 7, end stencils included.
    c = np.random.default_rng(0).normal(size=(2, 8))
    rows = [np.polynomial.Polynomial(ci) for ci in c]
    grid, table = _table(rows)
    s = np.linspace(0.0, 1.0, 1001)
    vals = table(16.0 * s**3)
    for row, p in zip(vals, rows):
        assert np.max(np.abs(row - p(s))) <= 1e-14 * np.max(np.abs(p(s)))


def test_g_table_accurate_in_end_stencils():
    # At every cell midpoint, the one-sided stencils of the first and last
    # three cells included, the error stays within the Lagrange remainder
    # bound max|f^(8)| h^8 prod_k |u - u_k| / 8!, u in node spacings.
    n = 65
    rows = [(lambda s: np.exp(-3.0 * s), 3.0**8), (lambda s: np.sin(5.0 * s + 0.3), 5.0**8)]
    grid, table = _table([f for f, _ in rows], n)
    u = np.arange(n - 1) + 0.5
    first = np.clip(np.floor(u) - 3.0, 0.0, n - 8.0)
    node_prod = np.prod(np.abs(u - first - np.arange(8.0)[:, None]), axis=0)
    s = u / (n - 1)
    vals = table(16.0 * s**3)
    for row, (f, d8) in zip(vals, rows):
        bound = d8 * node_prod / ((n - 1.0) ** 8 * math.factorial(8))
        assert np.all(np.abs(row - f(s)) <= bound + 1e-15)
        assert np.max(bound) < 3e-11


@pytest.fixture
def cold_memo(monkeypatch):
    # An earlier test may have left a G table for LD at the same key.
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
    # second call reuses the first G table and still gives the cold result.
    baths = [BathParams(beta=1.0, lam=math.sqrt(v)) for v in (2.0, 5.0)]
    cold = []
    for bath in baths:
        comparator._last_spline = None
        cold.append(me_steady_state(SPIN, bath, LD))
    comparator._last_spline = None
    builds = _counting_builds(monkeypatch)
    warm = [me_steady_state(SPIN, bath, LD) for bath in baths]
    assert len(builds) == 1
    assert [r.diagnostics["table_reused"] for r in warm] == [False, True]
    assert warm[0].diagnostics["tau_max"] == warm[1].diagnostics["tau_max"]
    for c, w in zip(cold, warm):
        assert np.array_equal(w.coherences, c.coherences)
        assert w.diagnostics["table_error"] == c.diagnostics["table_error"]
    grid, table = comparator._last_spline[2][:2]
    assert table.grid is grid
    assert not (grid.flags.writeable or table.y.flags.writeable)


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
    assert res.diagnostics["table_reused"] is False


def test_g_fault_surfaces_after_memo_filled(monkeypatch, cold_memo):
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me_steady_state(SPIN, bath, LD)

    def broken(sd, beta, tau, settings):
        raise NumericsError("injected G fault")

    monkeypatch.setattr(comparator, "_g_batch", broken)
    for b in (bath, BathParams(beta=1.3, lam=math.sqrt(5.0))):
        with pytest.raises(NumericsError, match="injected G fault"):
            me_steady_state(SPIN, b, LD)


def _me_coherences_pair_loop(sys, bath, sd, s):
    # The per-pair, per-sign loop that the all-pairs integrand replaces: each
    # active pair gets its own cut and window, and each sign of wbar its own
    # integrate_finite call per window.
    energies = comparator._effective_energies(
        sys, bath, RenormalizationConvention.NATURAL, sd
    )
    p = comparator._populations(energies, bath.beta)
    q_reorg = sd.reorganization_energy()
    pairs = [(l, l2) for l in range(sys.dim) for l2 in range(sys.dim) if l < l2]
    s_values = {(l, l2): bath.lam**2 * float(sys.a_diffs[l2, l]) ** 2 for l, l2 in pairs}
    active = [pr for pr in pairs if sys.h_elements[pr] != 0]
    coh = np.zeros((sys.dim, sys.dim), dtype=complex)
    s_min = min(s_values[pr] for pr in active)
    tail = comparator._TAIL_CUTOFF_EXPONENT
    tau_max = comparator._find_tau_max(sd, bath.beta, s_min, tail, s)
    grid, table = comparator._build_g_splines(sd, bath.beta, tau_max, s)[:2]
    re_g = table.y[0]
    for l, l2 in active:
        s_pair = s_values[(l, l2)]
        wbar = float(energies[l] - energies[l2])
        idx = np.searchsorted(s_pair * re_g, tail)
        tau_star = float(grid[min(idx, len(grid) - 1)])

        def transform(w):
            def f(t):
                re, im = table(t)
                phase = s_pair * (im + q_reorg * t) - w * t
                return np.exp(-s_pair * re + 1j * phase)

            window = tau_star
            if w != 0.0:
                window = min(window, comparator._WINDOW_PERIODS * 2.0 * np.pi / abs(w))
            edges = np.linspace(0.0, tau_star, max(2, int(np.ceil(tau_star / window)) + 1))
            return sum(
                comparator.integrate_finite(f, float(a), float(b), s).value
                for a, b in zip(edges[:-1], edges[1:])
            )

        val = sys.h_elements[l, l2] * (
            1j * p[l] * transform(wbar) - 1j * p[l2] * np.conj(transform(-wbar))
        )
        coh[l, l2] = val
        coh[l2, l] = np.conj(val)
    return coh


_DIM3 = SystemSpec(
    np.array([[0.5, 0.0, 0.3], [0.0, 0.1, 0.2], [0.3, 0.2, -0.4]], dtype=float),
    np.diag([-1.0, 0.2, 1.0]),
)
_DIM4 = SystemSpec(
    np.array(
        [
            [0.6, 0.2 + 0.1j, 0.1, 0.15j],
            [0.2 - 0.1j, 0.1, 0.3 - 0.2j, 0.05],
            [0.1, 0.3 + 0.2j, -0.2, 0.25 + 0.05j],
            [-0.15j, 0.05, 0.25 - 0.05j, -0.5],
        ]
    ),
    np.diag([-1.0, -0.3, 0.4, 1.1]),
)


@pytest.mark.parametrize(
    "sys, lam2q",
    [(SPIN, 1.0), (SPIN, 2.0), (SPIN, 5.0), (_DIM3, 1.44), (_DIM4, 2.0)],
    ids=["spin-1", "spin-2", "spin-5", "dim3", "dim4-complex"],
)
def test_me_all_pairs_matches_pair_loop(sys, lam2q):
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2q / LD.reorganization_energy()))
    ref = _me_coherences_pair_loop(sys, bath, LD, QuadratureSettings())
    me = me_steady_state(sys, bath, LD)
    assert np.max(np.abs(me.coherences - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert np.array_equal(me.coherences == 0.0, ref == 0.0)


def _random_system(dim):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = np.diag(np.linspace(-1.0, 1.0, dim) + 0.01 * rng.normal(size=dim))
    return SystemSpec(0.3 * (m + m.conj().T) / 2.0, a)


@pytest.mark.parametrize(
    "sys, lam2q, omega_c, beta",
    [
        (_DIM4, 3.0, 0.5, 1.5),
        (_DIM4, 3.0, 0.5, 4.0),
        (_DIM4, 3.0, 0.5, 12.0),
        (_random_system(8), 2.0, 0.25, 1.0),
        (_random_system(12), 2.0, 0.25, 1.0),
    ],
    ids=["dim4-beta1.5", "dim4-beta4", "dim4-beta12", "dim8", "dim12"],
)
def test_me_matches_exact_on_multilevel_systems(sys, lam2q, omega_c, beta):
    # The G table is read to 1e-11 of Q, so the ME route holds the exact
    # route to rounding on systems whose pairs decay at very different rates.
    sd = LorentzDrude(1.0, omega_c)
    bath = BathParams(beta=beta, lam=math.sqrt(lam2q / sd.reorganization_energy()))
    me = me_steady_state(sys, bath, sd)
    ex = steady_state(sys, bath, sd, CorrectionMethod.EXACT_QUADRATURE,
                      RenormalizationConvention.NATURAL)
    v = sys.a_eigenvectors
    c_ex = v.conj().T @ ex.state.entries @ v
    c_ex -= np.diag(np.diag(c_ex))
    assert np.max(np.abs(me.coherences - c_ex)) <= 1e-11 * np.max(np.abs(c_ex))


@pytest.mark.parametrize("lam2q", [1.0, 5.0])
@pytest.mark.parametrize(
    "omega_c, beta",
    [
        (0.25, 8.0),
        (0.25, 2.0 * math.pi / 0.25),
        (0.25, 2.0 * math.pi / 0.25 * (1.0 + 1e-6)),
        (1.0, 2.0 * math.pi),
        (1.0, 4.0 * math.pi),
        (1.0, 4.0 * math.pi * 1.001),
        (2.0, 20.0),
        (2.0, 50.0),
    ],
    ids=["wc0.25-beta8", "wc0.25-2pi", "wc0.25-2pi-1e-6", "wc1-2pi", "wc1-4pi",
         "wc1-4pi-1e-3", "wc2-beta20", "wc2-beta50"],
)
def test_me_matches_exact_at_matsubara_resonance(omega_c, beta, lam2q):
    # At beta w_c = 2 pi n the cot pole of G meets the n-th Matsubara term;
    # G cancels them analytically, so the ME route holds the exact one there,
    # next to it, and at low temperature (a = beta w_c/2 pi up to 15.9).
    sd = LorentzDrude(1.0, omega_c)
    bath = BathParams(beta=beta, lam=math.sqrt(lam2q))
    me = me_steady_state(SPIN, bath, sd)
    ex = steady_state(SPIN, bath, sd, CorrectionMethod.EXACT_QUADRATURE,
                      RenormalizationConvention.NATURAL)
    c_ex = a_basis_coherence(ex.state, SPIN)
    assert abs(me.coherences[0, 1] / c_ex - 1.0) <= 1e-11


def test_me_one_integrate_finite_call_per_window(monkeypatch):
    # All 6 pairs of the dim-4 system and both signs are one integrand: when
    # the shared cut fits in one window, one call covers the whole point.
    calls = []
    integrate = comparator.integrate_finite

    def counted(f, a, b, settings=None):
        r = integrate(f, a, b, settings)
        calls.append(r)
        return r

    monkeypatch.setattr(comparator, "integrate_finite", counted)
    me = me_steady_state(_DIM4, BathParams(beta=1.0, lam=math.sqrt(2.0)), LD)
    assert len(calls) == 1
    assert np.shape(calls[0].value) == (12,)
    d = me.diagnostics
    assert len(d["per_pair"]) == 6
    for pair in d["per_pair"].values():
        assert pair["tau_star"] == me.truncation_tau
        assert pair["evaluations"] == calls[0].evaluations


def test_me_state_assembly():
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    me = me_steady_state(SPIN, bath, LD)
    ht = steady_state(SPIN, bath, LD, method=CorrectionMethod.HIGH_TEMPERATURE_DAWSON)
    for rho in (me_state(SPIN, me), me.state):
        assert rho.dim == 2
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho.entries, rho.entries.conj().T, atol=1e-15)
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
