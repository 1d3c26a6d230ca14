import math

import numpy as np
import pytest

from meanforce import comparator
from meanforce.comparator import me_state, me_steady_state
from meanforce.errors import NumericsError, ValidationError
from meanforce.special import QuadratureSettings, integrate_finite
from meanforce.spectral import BathParams, DiscreteModes, LorentzDrude, Tabulated
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
    assert set(d) == {"per_pair", "tau_star", "g_reused"}
    assert d["tau_star"] > 0.0
    # the cut is the smallest rung of the ladder max(beta, 4/w_c) 1.5^k where
    # the pair's s Re G reaches the tail cutoff
    k = math.log(d["tau_star"] / max(bath.beta, 4.0 / LD.cutoff)) / math.log(1.5)
    assert k == pytest.approx(round(k), abs=1e-9)
    s_pair = bath.lam**2 * (SPIN.a_eigenvalues[1] - SPIN.a_eigenvalues[0]) ** 2
    re_g = np.real(LD.g(bath.beta, d["tau_star"] * np.array([1.0, 1.0 / 1.5]), QuadratureSettings()))
    assert s_pair * re_g[0] >= comparator._TAIL_CUTOFF_EXPONENT > s_pair * re_g[1]
    pair = d["per_pair"][(0, 1)]
    assert "tau_star" not in pair
    assert pair["error_estimate"] < 1e-8
    assert pair["evaluations"] >= 2 * comparator._RULE_START_NODES - 1
    # the cut guarantees s Re G(tau*) >= the tail cutoff exponent
    assert 0.0 < pair["tail_bound"] <= math.exp(-comparator._TAIL_CUTOFF_EXPONENT) * d["tau_star"]


@pytest.mark.parametrize("lam2q", [0.2, 1.0, 10.0])
def test_me_tail_bound_is_taken_at_the_cut(lam2q):
    # At fig1a's point the bound is e^{-s Re G(tau*)} tau*, with
    # s = lam^2 (a_1 - a_0)^2 and G from its own evaluation at tau*.
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2q / LD.reorganization_energy()))
    d = me_steady_state(SPIN, bath, LD).diagnostics
    tau_star = d["tau_star"]
    re_g = float(np.real(LD.g(bath.beta, np.array([tau_star]), QuadratureSettings())[0]))
    s = bath.lam**2 * (SPIN.a_eigenvalues[1] - SPIN.a_eigenvalues[0]) ** 2
    expected = math.exp(-s * re_g) * tau_star
    assert d["per_pair"][(0, 1)]["tail_bound"] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.fixture
def cold_memo(monkeypatch):
    # An earlier test may have left G for LD at the same key.
    monkeypatch.setattr(comparator, "_last_g", None)


def _rule_reads(monkeypatch):
    # The tau of every G call made outside the cut's ladder, call by call.
    inside, reads = [], []
    g_batch, find = comparator._g_batch, comparator._find_tau_max

    def counting_g_batch(sd, beta, tau, settings):
        if not inside:
            reads.append(np.array(tau))
        return g_batch(sd, beta, tau, settings)

    def marked_find(*args):
        inside.append(True)
        try:
            return find(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(comparator, "_g_batch", counting_g_batch)
    monkeypatch.setattr(comparator, "_find_tau_max", marked_find)
    return reads


def test_g_spline_build_evaluates_each_tau_once(monkeypatch, cold_memo):
    # Two couplings that share a rung share one memo entry: G is evaluated
    # at the rule's nodes only, each node once, all but tau = 0 (G(0) = 0)
    # and tau* (read in the ladder) in one call.
    reads = _rule_reads(monkeypatch)
    baths = [BathParams(beta=1.0, lam=math.sqrt(v)) for v in (2.0, 2.5)]
    res = [me_steady_state(SPIN, bath, LD) for bath in baths]
    assert res[0].diagnostics["tau_star"] == res[1].diagnostics["tau_star"]
    assert [r.diagnostics["g_reused"] for r in res] == [False, True]
    nodes = max(r.diagnostics["per_pair"][(0, 1)]["evaluations"] for r in res)
    assert nodes > comparator._RULE_START_NODES
    taus = np.concatenate(reads).tolist()
    assert len(reads) == 1
    assert len(set(taus)) == len(taus) == nodes - 2


def _counting_builds(monkeypatch):
    # The memo misses: calls that start a new G entry.
    builds = []
    rule_g = comparator._rule_g

    def counted(*args):
        at, reused = rule_g(*args)
        if not reused:
            builds.append(args)
        return at, reused

    monkeypatch.setattr(comparator, "_rule_g", counted)
    return builds


def test_g_spline_reused_across_couplings(monkeypatch, cold_memo):
    # Two couplings of one lambda^2 Q sweep land on the same rung, so the
    # second call reuses the first one's G and still gives the cold result.
    baths = [BathParams(beta=1.0, lam=math.sqrt(v)) for v in (2.0, 2.5)]
    cold = []
    for bath in baths:
        comparator._last_g = None
        cold.append(me_steady_state(SPIN, bath, LD))
    comparator._last_g = None
    builds = _counting_builds(monkeypatch)
    warm = [me_steady_state(SPIN, bath, LD) for bath in baths]
    assert len(builds) == 1
    assert [r.diagnostics["g_reused"] for r in warm] == [False, True]
    assert warm[0].diagnostics["tau_star"] == warm[1].diagnostics["tau_star"]
    for c, w in zip(cold, warm):
        assert np.array_equal(w.coherences, c.coherences)
        assert w.diagnostics["per_pair"] == c.diagnostics["per_pair"]
    g = comparator._last_g[4]
    assert len(g) == warm[1].diagnostics["per_pair"][(0, 1)]["evaluations"]
    assert not g.flags.writeable


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
    assert res.diagnostics["g_reused"] is False


def test_g_fault_surfaces_after_memo_filled(monkeypatch, cold_memo):
    # The memo holds G for the point's ladder and cut, so the same point
    # needs no G call and gives the same bits; a point on a new cut at the
    # same beta (ladder held) and a point at a new beta both call G and
    # surface its fault.
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    filled = me_steady_state(SPIN, bath, LD)
    new_cut = BathParams(beta=1.0, lam=math.sqrt(50.0))
    assert me_steady_state(SPIN, new_cut, LD).diagnostics["tau_star"] != filled.diagnostics["tau_star"]
    me_steady_state(SPIN, bath, LD)

    def broken(sd, beta, tau, settings):
        raise NumericsError("injected G fault")

    monkeypatch.setattr(comparator, "_g_batch", broken)
    assert np.array_equal(me_steady_state(SPIN, bath, LD).coherences, filled.coherences)
    for b in (new_cut, BathParams(beta=1.3, lam=math.sqrt(5.0))):
        with pytest.raises(NumericsError, match="injected G fault"):
            me_steady_state(SPIN, b, LD)


def test_ladder_read_once_per_key(monkeypatch, cold_memo):
    # Along a lambda^2 Q sweep the cut's ladder is one G call for the whole
    # sweep: later points on a held cut make no G call, and a point on a new
    # cut makes only the rule's.
    calls, g_batch = [], comparator._g_batch

    def counting(sd, beta, tau, settings):
        calls.append(len(tau))
        return g_batch(sd, beta, tau, settings)

    monkeypatch.setattr(comparator, "_g_batch", counting)
    runs = []
    for lam2q in (2.0, 2.5, 50.0):
        calls.clear()
        d = me_steady_state(SPIN, BathParams(beta=1.0, lam=math.sqrt(lam2q)), LD).diagnostics
        runs.append((d["tau_star"], list(calls)))
    ladder = comparator._LADDER_RUNGS + 1
    assert runs[0][1][0] == ladder and ladder not in runs[0][1][1:]
    assert runs[1] == (runs[0][0], [])
    assert runs[2][0] != runs[0][0]
    assert runs[2][1] and ladder not in runs[2][1]


@pytest.mark.parametrize("call", [-1, 0, 1, 2])
@pytest.mark.parametrize(
    "fault, match",
    [
        # Re G at the batch's last node (tau* excluded) falls 1 below the
        # batch's node before it
        (lambda g: np.where(np.arange(len(g)) == len(g) - 1, g[-2] - 1.0, g), "not nondecreasing"),
        (lambda g: np.where(np.arange(len(g)) == len(g) // 2, np.nan, g), "not finite"),
    ],
    ids=["non-monotone", "non-finite"],
)
def test_g_faults_refused_on_every_rule_batch(monkeypatch, cold_memo, call, fault, match):
    # At lambda^2 Q = 1e4 the rule reads G in three calls after the ladder
    # (255, 256 and 512 new nodes); a fault in any one of them, or in the
    # ladder's call (call -1), is refused.
    g, calls = LorentzDrude.g, []

    def faulty(self, beta, tau, settings):
        out = g(self, beta, tau, settings)
        if len(calls) == call + 1:  # calls[0] is the ladder's
            out = fault(out)
        calls.append(len(tau))
        return out

    monkeypatch.setattr(LorentzDrude, "g", faulty)
    with pytest.raises(NumericsError, match=match):
        me_steady_state(SPIN, BathParams(beta=1.0, lam=100.0), LD)
    assert len(calls) == call + 2


_WINDOW_PERIODS = 8.0  # the reference's window length in units of 2 pi / |wbar|


def _me_coherences_pair_loop(sys, bath, sd, s):
    # An adaptive reference for the all-pairs Gregory rule: each active pair
    # gets its own cut and windows, each sign of wbar its own
    # integrate_finite call per window, and G is evaluated at its nodes.
    energies = comparator._effective_energies(
        sys, bath, RenormalizationConvention.NATURAL, sd
    )
    p = comparator._populations(energies, bath.beta)
    q_reorg = sd.reorganization_energy()
    pairs = [(l, l2) for l in range(sys.dim) for l2 in range(sys.dim) if l < l2]
    a = sys.a_eigenvalues
    s_values = {(l, l2): bath.lam**2 * float(a[l2] - a[l]) ** 2 for l, l2 in pairs}
    active = [pr for pr in pairs if sys.h_elements[pr] != 0]
    coh = np.zeros((sys.dim, sys.dim), dtype=complex)
    for l, l2 in active:
        s_pair = s_values[(l, l2)]
        wbar = float(energies[l] - energies[l2])
        tau_star = comparator._find_tau_max(sd, bath.beta, s_pair, s)[0]

        def transform(w):
            def f(t):
                g = sd.g(bath.beta, t, s)
                phase = s_pair * (np.imag(g) + q_reorg * t) - w * t
                return np.exp(-s_pair * np.real(g) + 1j * phase)

            window = tau_star
            if w != 0.0:
                window = min(window, _WINDOW_PERIODS * 2.0 * np.pi / abs(w))
            edges = np.linspace(0.0, tau_star, max(2, int(np.ceil(tau_star / window)) + 1))
            return sum(
                integrate_finite(f, float(a), float(b), s).value
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
    # G is evaluated at the rule's own nodes, so the ME route holds the exact
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


def test_me_transform_reads_each_node_once(monkeypatch, cold_memo):
    # All 6 pairs of the dim-4 system and both signs are one integrand, and G
    # is evaluated at the rule's own nodes: the first 257 in one call (less
    # tau = 0 and tau*), then the odd nodes of each doubled grid, N in all.
    # A second call at the same cut reads G from the memo alone.
    bath = BathParams(beta=1.0, lam=math.sqrt(50.0))
    reads = _rule_reads(monkeypatch)
    d = me_steady_state(_DIM4, bath, LD).diagnostics
    assert not d["g_reused"]
    assert len(d["per_pair"]) == 6
    n = d["per_pair"][(0, 1)]["evaluations"]
    assert all(pair["evaluations"] == n for pair in d["per_pair"].values())
    assert n > comparator._FIRST_LEVEL_NODES
    tau = d["tau_star"] * np.linspace(0.0, 1.0, n) ** 3
    stride = (n - 1) // (comparator._FIRST_LEVEL_NODES - 1)
    assert np.array_equal(reads[0], np.delete(tau[::stride], [0, -1]))
    for t in reads[1:]:
        assert np.array_equal(t, tau[stride // 2::stride])
        stride //= 2
    assert stride == 1
    everything = np.concatenate(reads)
    assert len(everything) == len(set(everything.tolist())) == n - 2
    reads.clear()
    assert me_steady_state(_DIM4, bath, LD).diagnostics["g_reused"]
    assert reads == []


@pytest.mark.parametrize("points", [17, 33, 65])
def test_gregory_sum_integrates_degree_7_exactly(points):
    s = np.linspace(0.0, 1.0, points)
    for p in range(8):
        assert abs(comparator._gregory(s**p) / (points - 1) - 1.0 / (p + 1)) <= 1e-15


@pytest.mark.parametrize("lam2q", [1e3, 1e4])
def test_me_matches_exact_at_large_coupling(lam2q):
    # At lambda^2 Q = 1e3 and 1e4 the phase decays within tau* ~ 1e-3 and
    # the rule needs 513 and 1025 nodes; it still holds the exact route.
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2q / LD.reorganization_energy()))
    me = me_steady_state(SPIN, bath, LD)
    ex = steady_state(SPIN, bath, LD, CorrectionMethod.EXACT_QUADRATURE,
                      RenormalizationConvention.NATURAL)
    assert me.diagnostics["per_pair"][(0, 1)]["evaluations"] > 257
    assert abs(me.coherences[0, 1] / a_basis_coherence(ex.state, SPIN) - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "lam2q, max_nodes", [(1e3, 513), (1e4, 1025), (1e5, 4097), (1e6, 16385)]
)
def test_me_holds_exact_to_1e_11_up_to_lambda2q_1e6(lam2q, max_nodes):
    # G is evaluated at the rule's nodes on [0, tau*], so no table error is
    # scaled up by lam^2 a^2: measured 1.2e-14, 1.3e-14, 6.4e-14 and 8.8e-13.
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2q / LD.reorganization_energy()))
    me = me_steady_state(SPIN, bath, LD)
    ex = steady_state(SPIN, bath, LD, CorrectionMethod.EXACT_QUADRATURE,
                      RenormalizationConvention.NATURAL)
    assert me.diagnostics["per_pair"][(0, 1)]["evaluations"] <= max_nodes
    assert abs(me.coherences[0, 1] / a_basis_coherence(ex.state, SPIN) - 1.0) <= 1e-11


@pytest.mark.parametrize("lam2q", [1.0, 1e2, 1e4, 1e6])
def test_me_error_estimate_bounds_its_distance_to_exact(lam2q):
    # Each transform enters c = h (i p_0 I1 - i p_1 conj(I2)), so the pair's
    # error_estimate (both signs summed) times |h| (p_0 + p_1) is an error
    # bound in the units of c; it holds |c_me - c_exact|.
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2q / LD.reorganization_energy()))
    me = me_steady_state(SPIN, bath, LD)
    ex = steady_state(SPIN, bath, LD, CorrectionMethod.EXACT_QUADRATURE,
                      RenormalizationConvention.NATURAL)
    estimate = me.diagnostics["per_pair"][(0, 1)]["error_estimate"]
    bound = estimate * abs(SPIN.h_elements[0, 1]) * (me.populations[0] + me.populations[1])
    assert abs(me.coherences[0, 1] - a_basis_coherence(ex.state, SPIN)) <= bound


def test_me_answers_on_a_coarse_tabulated_density():
    # 13 rows of w e^{-w}: the interpolated G table missed its 1e-11 of Q
    # check here (2.11e-11 at 4097 nodes); G at the rule's nodes gives 6.1e-11.
    w = np.linspace(0.0, 3.0, 13)
    sd = Tabulated(w, w * np.exp(-w))
    bath = BathParams(beta=1.0, lam=math.sqrt(0.2 / sd.reorganization_energy()))
    me = me_steady_state(SPIN, bath, sd)
    ex = steady_state(SPIN, bath, sd, CorrectionMethod.EXACT_QUADRATURE,
                      RenormalizationConvention.NATURAL)
    assert abs(me.coherences[0, 1] / a_basis_coherence(ex.state, SPIN) - 1.0) <= 2e-10


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


@pytest.mark.parametrize(
    "sd, lam, match",
    [
        # s_min Re G stays below the tail cutoff through 200 growth steps of tau.
        (LD, 1e-20, "growth budget"),
        # A peak at w = 5 on a low floor makes Re G oscillate in tau faster
        # than it grows.
        (Tabulated([0.0, 4.0, 5.0, 6.0], [0.0, 0.04, 10.0, 0.0]), 1.0, "not nondecreasing"),
        # The same peak at a coupling whose cut (tau* ~ 0.2) falls below Re
        # G's first maximum (tau ~ 0.65): [0, tau*] rises, the ladder above
        # it falls, and the tail bound at tau* would not hold.
        (Tabulated([0.0, 4.0, 5.0, 6.0], [0.0, 0.04, 10.0, 0.0]), 8.0, "not nondecreasing"),
        # lambda^2 overflows; it is refused before anything squares lambda.
        (LD, 2e154, "coupling .* overflows"),
    ],
    ids=["growth-budget", "non-monotone-re-g", "non-monotone-beyond-cut", "coupling-overflow"],
)
def test_me_refuses_what_it_cannot_compute(sd, lam, match):
    with pytest.raises(NumericsError, match=match):
        me_steady_state(SPIN, BathParams(beta=1.0, lam=lam), sd)
