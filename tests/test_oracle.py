import math
import tracemalloc

import numpy as np
import pytest

from meanforce.errors import ValidationError
from meanforce.linalg import eigh
from meanforce.oracle import (
    BathDiscretization,
    _reduced_thermal_state,
    build_total_hamiltonian,
    discretize,
    exact_mean_force_state,
    reorganization_sum,
    truncated_bath_partition,
    verify_trace_identity,
)
from meanforce.spectral import BathParams, DiscreteModes, LorentzDrude, OhmicHardCutoff, Tabulated
from meanforce.spinboson import SpinBosonParams, build_system
from meanforce.steady import (
    CorrectionMethod,
    RenormalizationConvention,
    SystemSpec,
    steady_state,
    zeroth_order_state,
)


def _expm(m):
    """e^m without an eigensolver: a 30-term Taylor sum of m / 2^s, squared s
    times, with 2^s at least m's 1-norm."""
    s = max(0, math.ceil(math.log2(max(np.linalg.norm(m, 1), 1.0))))
    x = m / 2.0**s
    term = out = np.eye(len(m), dtype=x.dtype)
    for k in range(1, 31):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_discretize_midpoint_rule():
    sd = LorentzDrude(1.0, 0.25)
    bd = discretize(sd, 4, 2.0)
    assert isinstance(bd, DiscreteModes) and bd.fock_cutoff is None
    assert bd.n_modes == 4
    freqs = [w for _, w in bd.modes]
    assert freqs == pytest.approx([0.25, 0.75, 1.25, 1.75])
    # g_k^2 = J(omega_k) * bin width
    for g, w in bd.modes:
        assert g**2 == pytest.approx(float(sd(np.array([w]))[0]) * 0.5)


def test_discretize_bins_from_the_density_lower_edge():
    # A table that starts at 5 is binned over [5, 6], so every midpoint lies
    # in its support; a table that starts at 0 bins exactly as before.
    late = Tabulated([5.0, 5.5, 6.0], [0.0, 1.0, 0.0])
    bd = discretize(late, 3, late.cutoff)
    g, w = np.array(bd.modes).T
    assert np.allclose(w, [5.0 + 1.0 / 6.0, 5.5, 6.0 - 1.0 / 6.0], rtol=1e-15)
    assert np.all(g > 0)
    assert g**2 == pytest.approx(late(w) / 3.0, rel=1e-15)
    early = Tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.5, 1.0, 0.3])
    assert LorentzDrude(1.0, 0.25).lower_edge == early.lower_edge == 0.0
    for sd, omega_max in ((early, 2.0), (LorentzDrude(1.0, 0.25), 3.0)):
        k = np.arange(1, 6)
        w = (k - 0.5) * omega_max / 5
        g = np.sqrt(sd(w) * omega_max / 5)
        assert discretize(sd, 5, omega_max).modes == tuple(zip(g, w))
    with pytest.raises(ValidationError, match="lower edge"):
        discretize(late, 3, 5.0)


def test_discretize_validations():
    sd = LorentzDrude(1.0, 0.25)
    with pytest.raises(ValidationError):
        discretize(sd, 0, 2.0)
    with pytest.raises(ValidationError):
        discretize(sd, 3, 0.0)
    with pytest.raises(ValidationError):
        BathDiscretization(modes=())
    with pytest.raises(ValidationError):
        BathDiscretization(modes=((0.5, -1.0),))
    with pytest.raises(ValidationError):
        BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=0)
    # The midpoints 2, 6 and 10 lie past the hard cutoff 1: no mode couples.
    with pytest.raises(ValidationError, match="no mode couples"):
        discretize(OhmicHardCutoff(1.0, 1.0), 3, 12.0)
    # Sizes are refused, not truncated, unless integral; numpy integers pass.
    for cutoff in (2.7, "5"):
        with pytest.raises(ValidationError, match="fock_cutoff must be an integer"):
            BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=cutoff)
    with pytest.raises(ValidationError, match="number of bins must be an integer"):
        discretize(sd, 2.9, 3.0)
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=np.int64(5))
    assert bd.fock_cutoff == 5 and type(bd.fock_cutoff) is int
    assert discretize(sd, np.int64(3), 3.0).n_modes == 3


def test_oracle_bath_is_a_discrete_modes_density():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bath = BathParams(beta=1.0, lam=1.3)
    bd = BathDiscretization(discretize(LorentzDrude(1.0, 0.25), 3, 3.0).modes, fock_cutoff=5)
    dm = DiscreteModes(bd.modes)
    for method in CorrectionMethod:
        assert np.array_equal(
            steady_state(sys, bath, bd, method).state.entries,
            steady_state(sys, bath, dm, method).state.entries,
        )
    assert np.array_equal(
        zeroth_order_state(sys, bath, sd=bd).entries, zeroth_order_state(sys, bath, sd=dm).entries
    )
    assert reorganization_sum(bd) == bd.reorganization_energy() == dm.reorganization_energy()
    # Equality is by value, as for DiscreteModes, and the cutoff is part of it.
    assert bd == BathDiscretization(bd.modes, 5) and hash(bd) == hash(BathDiscretization(bd.modes, 5))
    assert bd != BathDiscretization(bd.modes, 6)


def test_no_fock_cutoff_is_refused_where_no_automatic_rule_applies():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bd = BathDiscretization(modes=((0.5, 1.0),))
    with pytest.raises(ValidationError, match="no Fock cutoff"):
        build_total_hamiltonian(sys, bd, lam=0.5)
    with pytest.raises(ValidationError, match="no Fock cutoff"):
        verify_trace_identity(bd, 1.0, -1.0, lam=0.5, beta=1.0, u=0.4)


def test_trace_identity_runs_on_the_solve_operator_builder(monkeypatch):
    import meanforce.oracle as oracle_module

    built = []
    build = oracle_module._bath_operators

    def counting(bd, cutoff):
        built.append(cutoff)
        return build(bd, cutoff)

    monkeypatch.setattr(oracle_module, "_bath_operators", counting)
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=30)
    verify_trace_identity(bd, 1.0, -1.0, lam=0.5, beta=1.0, u=0.4)
    assert built == [30, 40]  # the cutoff and its +10 recheck


def test_reorganization_sum_converges_to_q():
    sd = LorentzDrude(1.0, 0.25)
    q = sd.reorganization_energy()
    # omega_max = 40 omega_c captures nearly the full 1/w^2 tail
    errs = [abs(reorganization_sum(discretize(sd, n, 10.0)) / q - 1.0)
            for n in (20, 80, 320)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


def test_total_hamiltonian_shape_and_renormalization():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=3)
    h = build_total_hamiltonian(sys, bd, lam=0.8)
    assert h.dim == 2 * 4
    h_nat = build_total_hamiltonian(
        sys, bd, lam=0.8, conv=RenormalizationConvention.NATURAL
    )
    # A^2 = I for sigma_z coupling: the conventions differ by a uniform shift
    shift = 0.8**2 * reorganization_sum(bd)
    assert np.allclose(h.entries - h_nat.entries, shift * np.eye(8), atol=1e-14)


def test_dimension_cap_enforced():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bd = BathDiscretization(modes=((0.5, 1.0),) * 3, fock_cutoff=20)
    with pytest.raises(ValidationError, match=r"18522 \(2 x 21\^3, Fock cutoff 20\) exceeds the cap"):
        build_total_hamiltonian(sys, bd, lam=0.5)
    bath = BathParams(beta=1.0, lam=0.5)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        exact_mean_force_state(sys, bd, bath)


def test_oracle_lambda_zero_reduces_to_gibbs():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bd = BathDiscretization(modes=((0.4, 1.2),), fock_cutoff=15)
    bath = BathParams(beta=1.3, lam=0.0)
    res = exact_mean_force_state(sys, bd, bath)
    ref = _expm(-bath.beta * sys.h_s.entries)
    ref = ref / np.trace(ref).real
    assert np.allclose(res.state.entries, ref, atol=1e-12)
    assert not res.truncation_suspect
    assert not res.non_converged


def test_oracle_mode_permutation_invariance():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    modes = ((0.5, 0.7), (0.3, 1.9))
    bath = BathParams(beta=1.0, lam=0.9)
    a = exact_mean_force_state(
        sys, BathDiscretization(modes, fock_cutoff=12), bath
    ).state.entries
    b = exact_mean_force_state(
        sys, BathDiscretization(modes[::-1], fock_cutoff=12), bath
    ).state.entries
    assert np.allclose(a, b, atol=1e-12)


def test_oracle_convergence_table_and_flags():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=18)
    bath = BathParams(beta=1.0, lam=0.6)
    res = exact_mean_force_state(sys, bd, bath)
    assert res.fock_cutoff == 18
    cutoffs = [c for c, _ in res.convergence]
    assert cutoffs == [8, 13]
    dists = [d for _, d in res.convergence]
    assert dists[0] >= dists[1] >= 0.0
    assert res.non_converged == (dists[-1] > 1e-6)
    tr = np.trace(res.state.entries).real
    assert tr == pytest.approx(1.0, abs=1e-12)


def test_oracle_auto_cutoff_raises_with_coupling():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bath = BathParams(beta=1.0, lam=6.0)
    # displaced occupancy (lam g a / w)^2 = 36 forces the cutoff past 25
    bd = BathDiscretization(modes=((1.0, 1.0),))
    res = exact_mean_force_state(sys, bd, bath)
    assert res.fock_cutoff > 25
    assert not res.truncation_suspect


def test_oracle_truncation_suspect_flag():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bath = BathParams(beta=1.0, lam=6.0)
    bd = BathDiscretization(modes=((1.0, 1.0),), fock_cutoff=10)
    res = exact_mean_force_state(sys, bd, bath)
    assert res.truncation_suspect


def test_truncated_bath_partition_closed_form():
    bd = BathDiscretization(modes=((0.5, 0.8), (0.2, 1.7)), fock_cutoff=6)
    beta = 1.1
    z = truncated_bath_partition(bd, beta, 6)
    ref = 1.0
    for _, w in bd.modes:
        ref *= sum(math.exp(-beta * w * n) for n in range(7))
    assert z == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("beta_w", [1e-8, 0.3, 5.0, 40.0])
def test_truncated_bath_partition_is_the_geometric_sum(beta_w):
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=5)
    ref = sum(math.exp(-beta_w * n) for n in range(6))
    assert truncated_bath_partition(bd, beta_w, 5) == pytest.approx(ref, rel=1e-13)


def test_truncated_bath_partition_at_vanishing_beta_w_counts_the_levels():
    # e^{-beta w} rounds to 1 here; (1 - q^6)/(1 - q) was 0/0.
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=5)
    assert truncated_bath_partition(bd, 1e-20, 5) == pytest.approx(6.0, rel=1e-15)


@pytest.mark.parametrize("beta", [10.0, 80.0, 2000.0])
def test_oracle_state_does_not_depend_on_an_energy_offset(beta):
    # With the offset E_0 is about 9.4, so e^{-beta E_0} underflows at beta = 80
    # and 2000; the state comes from weights relative to the ground energy.
    h_s = np.array([[0.5, 0.35], [0.35, -0.5]])
    a = np.diag([1.0, -1.0])
    bd = BathDiscretization(modes=((0.4, 1.0),), fock_cutoff=12)
    bath = BathParams(beta=beta, lam=0.5)
    low = exact_mean_force_state(SystemSpec(h_s, a), bd, bath).state.entries
    high = exact_mean_force_state(SystemSpec(h_s + 10.0 * np.eye(2), a), bd, bath).state.entries
    assert np.max(np.abs(high - low)) <= 1e-13


def test_trace_identity_two_routes_agree():
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=60)
    lhs, rhs = verify_trace_identity(bd, a_l=1.0, a_l2=-1.0, lam=0.7, beta=1.0, u=0.4)
    assert abs(lhs / rhs - 1.0) < 1e-12


def test_trace_identity_endpoint_u():
    # u = 0 collapses the left factor to e^{-beta H_{B,l}} alone
    bd = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=60)
    lhs, rhs = verify_trace_identity(bd, 1.0, -1.0, lam=0.7, beta=1.0, u=0.0)
    assert abs(lhs / rhs - 1.0) < 1e-12
    assert rhs == pytest.approx(truncated_bath_partition(bd, 1.0, 60), rel=1e-12)


@pytest.mark.parametrize("u_frac", [0.0, 0.4, 1.0])
def test_trace_identity_lhs_matches_matrix_exponentials(u_frac):
    # Tr[e^{-(beta-u) H_{B,l}} e^{-u H_{B,l'}}] with each displaced Hamiltonian
    # built from its ladder operators and exponentiated without an eigensolver.
    g, w, lam, beta, cutoff = 0.5, 1.0, 0.9, 4.0, 8
    bd = BathDiscretization(modes=((g, w),), fock_cutoff=cutoff)
    ladder = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)

    def displaced(al):
        return (w * np.diag(np.arange(cutoff + 1.0)) + lam * al * g * (ladder + ladder.T)
                + lam**2 * al**2 * g**2 / w * np.eye(cutoff + 1))

    u = u_frac * beta
    ref = np.trace(_expm(-(beta - u) * displaced(1.0)) @ _expm(-u * displaced(-1.0)))
    lhs, _ = verify_trace_identity(bd, 1.0, -1.0, lam=lam, beta=beta, u=u)
    assert abs(lhs / ref - 1.0) < 1e-13


def test_trace_identity_validations():
    two = BathDiscretization(modes=((0.5, 1.0), (0.2, 2.0)), fock_cutoff=10)
    with pytest.raises(ValidationError, match="single-mode"):
        verify_trace_identity(two, 1.0, -1.0, 0.5, 1.0, 0.3)
    one = BathDiscretization(modes=((0.5, 1.0),), fock_cutoff=10)
    with pytest.raises(ValidationError):
        verify_trace_identity(one, 1.0, -1.0, 0.5, 1.0, 1.5)


def test_trace_identity_warns_on_small_cutoff():
    bd = BathDiscretization(modes=((1.0, 0.5),), fock_cutoff=2)
    with pytest.warns(UserWarning, match="cutoff"):
        verify_trace_identity(bd, 2.0, -2.0, lam=1.5, beta=2.0, u=1.0)


def _complex_dim3_system():
    rng = np.random.default_rng(17)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return SystemSpec(0.5 * (h + h.conj().T), 0.5 * (a + a.conj().T))


_SOLVE_CASES = [
    (sys_name, conv)
    for sys_name in ("spin-boson", "complex-dim3")
    for conv in RenormalizationConvention
]
_TWO_MODES = BathDiscretization(modes=((0.6, 0.8), (0.4, 1.7)), fock_cutoff=6)


def _case_system(sys_name):
    if sys_name == "spin-boson":
        return build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    return _complex_dim3_system()


def _kron_hamiltonian(sys, bd, lam, conv, cutoff):
    """H_S x I + lam A x B + I x H_B, every term a Kronecker product."""
    d1 = cutoff + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
    n = len(bd.modes)
    h_b = np.zeros((d1**n, d1**n))
    b = np.zeros((d1**n, d1**n))
    for k, (g, w) in enumerate(bd.modes):
        def lift(op):
            return np.kron(np.kron(np.eye(d1**k), op), np.eye(d1 ** (n - k - 1)))
        h_b += w * lift(np.diag(np.arange(d1, dtype=float)))
        b += g * lift(ladder + ladder.T)
    a, h_s = sys.a.entries, sys.h_s.entries
    if conv is RenormalizationConvention.RENORMALIZED:
        h_s = h_s + lam**2 * reorganization_sum(bd) * (a @ a)
    return (np.kron(h_s, np.eye(d1**n)) + lam * np.kron(a, b)
            + np.kron(np.eye(sys.dim), h_b))


@pytest.mark.parametrize("sys_name,conv", _SOLVE_CASES)
def test_total_hamiltonian_equals_kronecker_construction(sys_name, conv):
    sys = _case_system(sys_name)
    h = build_total_hamiltonian(sys, _TWO_MODES, 0.9, conv)
    assert h.dim == sys.dim * 49
    # Validation makes the matrix exactly Hermitian: (K + K^H)/2, which is K
    # bit for bit wherever K is exactly Hermitian already.
    k = _kron_hamiltonian(sys, _TWO_MODES, 0.9, conv, 6)
    expected = k + k.conj().T
    expected *= 0.5
    assert np.array_equal(h.entries, expected)


@pytest.mark.parametrize("sys_name,conv", _SOLVE_CASES)
def test_reduced_thermal_state_matches_matrix_exponential_route(sys_name, conv):
    # The former route: shift by the lowest eigenvalue, exponentiate the whole
    # Hamiltonian, then trace the bath out of the (S, B, S, B) reshape.
    sys = _case_system(sys_name)
    bath = BathParams(beta=1.3, lam=0.9)
    rho = _reduced_thermal_state(sys, _TWO_MODES, bath, conv, 6)
    h = build_total_hamiltonian(sys, _TWO_MODES, bath.lam, conv)
    e0 = float(np.linalg.eigvalsh(h.entries)[0])
    m = _expm(-bath.beta * (h.entries - e0 * np.eye(h.dim)))
    z_shift = float(np.real(np.trace(m)))
    ref = np.einsum("ibjb->ij", m.reshape(sys.dim, 49, sys.dim, 49)) / z_shift
    assert np.max(np.abs(rho - ref)) <= 1e-13


def test_reduced_thermal_state_runs_one_eigensolve(monkeypatch):
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))  # eigh(A) here
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        orig = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    _reduced_thermal_state(
        sys, _TWO_MODES, BathParams(beta=1.0, lam=0.7),
        RenormalizationConvention.RENORMALIZED, 6,
    )
    assert calls == {"eigh": 1, "eigvalsh": 0}


def test_eigh_of_the_total_hamiltonian_holds_no_copy_of_it():
    # H is exactly Hermitian, so eigh hands it to LAPACK as it is. numpy's own
    # LAPACK buffers are not traced; the eigenvectors (8 D^2 bytes) are.
    sys_spec = build_system(SpinBosonParams(1.0, 0.7))
    bd = BathDiscretization(discretize(LorentzDrude(1.0, 0.25), 2, 3.0).modes, 15)
    h = build_total_hamiltonian(sys_spec, bd, 1.2)
    dim = h.dim
    assert dim == 512
    tracemalloc.start()
    try:
        eigh(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * dim**2
