import math

import numpy as np
import pytest

from meanforce.errors import ValidationError
from meanforce.linalg import DensityMatrix, HermitianMatrix, eigh


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
    with pytest.raises(ValidationError, match="density matrix is not Hermitian"):
        DensityMatrix([[0.5, 0.2], [0.1, 0.5]])
    rho = DensityMatrix([[0.5, 0.2], [0.2, 0.5]])
    assert rho.min_eigenvalue == pytest.approx(0.3, abs=1e-12)
    assert isinstance(rho, HermitianMatrix) and rho.dim == 2


def test_density_matrix_unchecked_records_min_eigenvalue():
    m = np.array([[0.9, 0.5], [0.5, 0.1]])
    rho = DensityMatrix(m, check_positive=False)
    lo = float(np.linalg.eigvalsh(m)[0])
    assert lo < -1e-3  # this matrix is genuinely indefinite
    assert rho.min_eigenvalue == pytest.approx(lo, abs=1e-12)
    assert rho.psd_ok is False
    with pytest.raises(ValidationError):
        DensityMatrix(m)  # and the checked constructor refuses it


def test_eigh_ascending_and_orthonormal():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 5)
    w, v = eigh(m)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    rebuilt = (v * w) @ v.conj().T
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
        w, v = eigh(given_m)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(v, v_ref)


def test_hermitian_matrix_holds_exactly_hermitian_entries():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 5)
    assert np.array_equal(HermitianMatrix(m).entries, m)  # already exact: kept as it is
    m[1, 3] += 1e-13
    entries = HermitianMatrix(m).entries
    expected = m + m.conj().T
    expected *= 0.5
    assert np.array_equal(entries, expected)
    assert np.array_equal(entries, entries.conj().T)


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
