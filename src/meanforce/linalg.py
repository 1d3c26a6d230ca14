"""Dense Hermitian linear algebra: eigendecomposition and the spectral matrix
exponential.

Matrices stay small (system dimension times a truncated Fock space); dense
numpy is the whole story here. Real-symmetric inputs keep real dtype
throughout, which matters for the large exact-diagonalization runs.

eigh copies its input only when it must. Validation records whether a matrix
is exactly Hermitian (conj(m) == m^T entry for entry). Such a matrix goes to
LAPACK as it is: the solver reads one triangle, and (m + m^H)/2 would give back
the same matrix. A matrix that is Hermitian only within the 1e-12 tolerance is
symmetrized first, into one new D x D array. numpy's eigh still makes its own
working copy for LAPACK either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ValidationError

__all__ = [
    "HermitianMatrix",
    "DensityMatrix",
    "EigenDecomposition",
    "eigh",
    "matrix_exp_hermitian",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = -1e-9


def _hermitian_array(entries, what: str) -> tuple[np.ndarray, bool]:
    """A finite square copy of entries, Hermitian within _HERM_TOL absolute,
    and whether it is Hermitian exactly."""
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.number):
        raise ValidationError(f"expected numeric entries, got dtype {m.dtype}")
    m = m.astype(complex) if np.iscomplexobj(m) else m.astype(float)
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    # conj(m) - m^T has the moduli of m - m^H. np.conjugate makes a new array
    # even for real m (whose m.conj() is m itself), so the subtraction and the
    # abs run in place on it: one D x D temporary in all.
    d = np.conjugate(m)
    d -= m.T
    np.abs(d, out=d)
    deviation = d.real.max()
    if deviation > _HERM_TOL:
        raise ValidationError(f"{what} is not Hermitian within {_HERM_TOL} absolute")
    return m, bool(deviation == 0.0)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A validated Hermitian matrix. entries is read-only after construction."""

    entries: np.ndarray
    _exactly_hermitian: bool = field(repr=False)

    def __init__(self, entries):
        m, exact = _hermitian_array(entries, "matrix")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_exactly_hermitian", exact)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    check_positive=False skips the PSD validation (min eigenvalue >= -1e-9)
    while still recording min_eigenvalue: perturbative constructions can dip
    below zero outside their validity regime, and that is reported rather than
    repaired or rejected.
    """

    entries: np.ndarray
    min_eigenvalue: float
    _exactly_hermitian: bool = field(repr=False)

    def __init__(self, entries, check_positive: bool = True):
        m, exact = _hermitian_array(entries, "density matrix")
        tr = m.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr} is not 1 within 1e-10")
        lo = float(np.linalg.eigvalsh(m)[0])
        if check_positive and lo < _PSD_TOL:
            raise ValidationError(
                f"density matrix has eigenvalue {lo} below the PSD tolerance {_PSD_TOL}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "min_eigenvalue", lo)
        object.__setattr__(self, "_exactly_hermitian", exact)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Accepts a HermitianMatrix or DensityMatrix, already validated when it was
    built, or a plain array, which is validated here. An exactly Hermitian
    matrix goes to the solver as it is; one that is Hermitian only within
    tolerance is symmetrized (m + m^H)/2 first, so the solver always sees an
    exactly Hermitian input.
    """
    if isinstance(m, (HermitianMatrix, DensityMatrix)):
        a, exact = m.entries, m._exactly_hermitian
    else:
        a, exact = _hermitian_array(m, "eigh input")
    if not exact:
        a = a + a.conj().T
        a *= 0.5
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(w, v)


def matrix_exp_hermitian(m, scale: float) -> HermitianMatrix:
    """exp(scale * m) for Hermitian m, via the spectral decomposition.

    Raises if scale * max-eigenvalue would overflow; callers evaluating
    thermal weights must shift the spectrum first (the shift cancels in every
    partition-function ratio).
    """
    scale = float(scale)
    dec = eigh(m)
    exponents = scale * dec.eigenvalues
    top = float(np.max(exponents))
    if top > math.log(np.finfo(float).max):
        raise NumericsError(
            f"matrix exponential overflows: max exponent {top:.6g}; "
            "shift the spectrum before exponentiating"
        )
    v = dec.eigenvectors
    out = (v * np.exp(exponents)) @ v.conj().T
    out = 0.5 * (out + out.conj().T)
    return HermitianMatrix(out)
