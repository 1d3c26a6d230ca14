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
    partial_trace,
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


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(rng, 3)
    b = b @ b.conj().T
    b /= np.trace(b).real
    m = np.kron(a, b)
    assert np.allclose(partial_trace(m, (2, 3), 0), a, atol=1e-13)
    assert np.allclose(partial_trace(m, (2, 3), 1), b, atol=1e-13)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(4)
    mats = []
    for n in (2, 2, 3):
        m = random_hermitian(rng, n)
        m = m @ m.conj().T
        m /= np.trace(m).real
        mats.append(m)
    full = np.kron(np.kron(mats[0], mats[1]), mats[2])
    for k in range(3):
        assert np.allclose(partial_trace(full, (2, 2, 3), k), mats[k], atol=1e-13)


def test_partial_trace_preserves_trace_and_validates():
    rng = np.random.default_rng(9)
    m = random_hermitian(rng, 6)
    out = partial_trace(m, (2, 3), 0)
    assert np.trace(out) == pytest.approx(np.trace(m), abs=1e-12)
    with pytest.raises(ValidationError):
        partial_trace(m, (2, 2), 0)  # 4 != 6
    with pytest.raises(ValidationError):
        partial_trace(m, (2, 3), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_exp_trace_identity(n, seed):
    # det(e^M) = e^{tr M}, i.e. prod of eigenvalue exponentials.
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, n)
    out = matrix_exp_hermitian(m, 1.0).entries
    det = float(np.real(np.linalg.det(out)))
    assert det == pytest.approx(math.exp(float(np.real(np.trace(m)))), rel=1e-9)
