import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanforce.errors import NumericsError, ValidationError
from meanforce.linalg import (
    DensityMatrix,
    HermitianMatrix,
    eigh,
    matrix_exp_hermitian,
)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def test_hermitian_matrix_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])


def test_hermitian_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValidationError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        HermitianMatrix([[math.inf, 0.0], [0.0, 0.0]])


def test_density_matrix_validations():
    with pytest.raises(ValidationError):
        DensityMatrix([[0.6, 0.0], [0.0, 0.6]])  # trace 1.2
    with pytest.raises(ValidationError):
        DensityMatrix([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
    rho = DensityMatrix([[0.5, 0.2], [0.2, 0.5]])
    assert rho.min_eigenvalue == pytest.approx(0.3, abs=1e-12)


def test_density_matrix_unchecked_records_min_eigenvalue():
    m = np.array([[0.9, 0.5], [0.5, 0.1]])
    rho = DensityMatrix(m, check_positive=False)
    lo = float(np.linalg.eigvalsh(m)[0])
    assert lo < -1e-3  # this matrix is genuinely indefinite
    assert rho.min_eigenvalue == pytest.approx(lo, abs=1e-12)
    with pytest.raises(ValidationError):
        DensityMatrix(m)  # and the checked constructor refuses it


def test_eigh_ascending_and_orthonormal():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 5)
    dec = eigh(m)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    v = dec.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    rebuilt = (v * dec.eigenvalues) @ v.conj().T
    assert np.allclose(rebuilt, m, atol=1e-12)


@pytest.mark.parametrize("build", [HermitianMatrix, DensityMatrix])
def test_eigh_hands_an_exactly_hermitian_matrix_over_uncopied(build, monkeypatch):
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 6)
    m = m @ m
    m = m + m.conj().T  # exactly Hermitian, where m @ m is so only to rounding
    m = build(m / np.trace(m).real)
    seen = []
    solve = np.linalg.eigh

    def capture(a, *args, **kwargs):
        seen.append(a)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", capture)
    eigh(m)
    assert len(seen) == 1 and seen[0] is m.entries


def test_eigh_symmetrizes_a_nearly_hermitian_matrix_as_before():
    # Hermitian only within tolerance: the eigenpairs are those of (m + m^H)/2,
    # bit for bit as when eigh symmetrized every input.
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 7)
    m[2, 5] += 1e-13
    m[4, 1] -= 1e-13j
    hm = HermitianMatrix(m)
    a = hm.entries + hm.entries.conj().T
    a *= 0.5
    w_ref, v_ref = np.linalg.eigh(a)
    for given_m in (hm, m):
        dec = eigh(given_m)
        assert np.array_equal(dec.eigenvalues, w_ref)
        assert np.array_equal(dec.eigenvectors, v_ref)


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_matrix_exp_diagonal():
    m = np.diag([1.0, 2.0, -3.0])
    out = matrix_exp_hermitian(m, -0.5).entries
    assert np.allclose(np.diag(out), np.exp([-0.5, -1.0, 1.5]), rtol=1e-14)


def test_matrix_exp_inverse_pair():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 4)
    a = matrix_exp_hermitian(m, 0.3).entries
    b = matrix_exp_hermitian(m, -0.3).entries
    assert np.allclose(a @ b, np.eye(4), atol=1e-12)


def test_matrix_exp_overflow_guard():
    with pytest.raises(NumericsError):
        matrix_exp_hermitian(np.diag([1000.0, 0.0]), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_exp_trace_identity(n, seed):
    # det(e^M) = e^{tr M}, i.e. prod of eigenvalue exponentials.
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, n)
    out = matrix_exp_hermitian(m, 1.0).entries
    det = float(np.real(np.linalg.det(out)))
    assert det == pytest.approx(math.exp(float(np.real(np.trace(m)))), rel=1e-9)
