import math
import tracemalloc

import numpy as np
import pytest

from meanforce.errors import ValidationError
from meanforce.linalg import eigh, matrix_exp_hermitian
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
from meanforce.spectral import BathParams, LorentzDrude
from meanforce.spinboson import SpinBosonParams, build_system
from meanforce.steady import RenormalizationConvention, SystemSpec


def test_discretize_midpoint_rule():
    sd = LorentzDrude(1.0, 0.25)
    bd = discretize(sd, 4, 2.0)
    assert bd.n_modes == 4
    freqs = [w for _, w in bd.modes]
    assert freqs == pytest.approx([0.25, 0.75, 1.25, 1.75])
    # g_k^2 = J(omega_k) * bin width
    from meanforce.spectral import j_of_omega

    for g, w in bd.modes:
        assert g**2 == pytest.approx(float(j_of_omega(sd, np.array([w]))[0]) * 0.5)


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
    with pytest.raises(ValidationError, match="exceeds the cap"):
        build_total_hamiltonian(sys, bd, lam=0.5)  # 2 * 21^3 = 18522 > 6000
    bath = BathParams(beta=1.0, lam=0.5)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        exact_mean_force_state(sys, bd, bath)


def test_oracle_lambda_zero_reduces_to_gibbs():
    sys = build_system(SpinBosonParams(epsilon=1.0, delta=0.7))
    bd = BathDiscretization(modes=((0.4, 1.2),), fock_cutoff=15)
    bath = BathParams(beta=1.3, lam=0.0)
    res = exact_mean_force_state(sys, bd, bath)
    ref = matrix_exp_hermitian(sys.h_s, -bath.beta).entries
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
    assert res.z_sb > 0 and res.z_b > 0


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
    assert np.array_equal(h.entries, _kron_hamiltonian(sys, _TWO_MODES, 0.9, conv, 6))


@pytest.mark.parametrize("sys_name,conv", _SOLVE_CASES)
def test_reduced_thermal_state_matches_matrix_exponential_route(sys_name, conv):
    # The former route: shift by the lowest eigenvalue, exponentiate the whole
    # Hamiltonian, then trace the bath out of the (S, B, S, B) reshape.
    sys = _case_system(sys_name)
    bath = BathParams(beta=1.3, lam=0.9)
    rho, z_sb = _reduced_thermal_state(sys, _TWO_MODES, bath, conv, 6)
    h = build_total_hamiltonian(sys, _TWO_MODES, bath.lam, conv)
    e0 = float(np.linalg.eigvalsh(h.entries)[0])
    m = matrix_exp_hermitian(h.entries - e0 * np.eye(h.dim), -bath.beta).entries
    z_shift = float(np.real(np.trace(m)))
    ref = np.einsum("ibjb->ij", m.reshape(sys.dim, 49, sys.dim, 49)) / z_shift
    assert np.max(np.abs(rho - ref)) <= 1e-13
    assert abs(z_sb / (z_shift * math.exp(-bath.beta * e0)) - 1.0) <= 1e-13


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
