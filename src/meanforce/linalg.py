"""Dense Hermitian linear algebra: validation and eigendecomposition.

Matrices stay small (system dimension times a truncated Fock space); dense
numpy is the whole story here. Real-symmetric inputs keep real dtype
throughout, which matters for the large exact-diagonalization runs.

Every HermitianMatrix holds exactly Hermitian entries (conj(m) == m^T entry
for entry): validation keeps such an input as it is and replaces one that is
Hermitian only within 1e-12 by (m + m^H)/2. eigh hands a HermitianMatrix's
entries to LAPACK uncopied (numpy's eigh makes its own working copy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "HermitianMatrix",
    "DensityMatrix",
    "eigh",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = -1e-9
_NUMBER_KINDS = "iufcm"  # the dtype kinds of np.number (timedelta64 is one)


def _hermitian_array(entries, what: str) -> np.ndarray:
    """A finite square copy of entries, Hermitian within _HERM_TOL absolute,
    made exactly Hermitian: as it is if it already is, else (m + m^H)/2."""
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    kind = m.dtype.kind
    if kind not in _NUMBER_KINDS:
        raise ValidationError(f"expected numeric entries, got dtype {m.dtype}")
    m = m.astype(complex if kind == "c" else float)
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
    if deviation == 0.0:
        return m
    # (m + m^H)/2 in d's buffer, so no third D x D array is made; the sum's
    # operands commute, so these are the bits of m + m.conj().T, halved.
    np.conjugate(m.T, out=d)
    d += m
    d *= 0.5
    return d


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A validated, exactly Hermitian matrix; entries is read-only."""

    entries: np.ndarray
    _what = "matrix"  # names the matrix in validation errors

    def __init__(self, entries):
        m = _hermitian_array(entries, self._what)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianMatrix):
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    check_positive=False skips the PSD validation (min eigenvalue >= -1e-9)
    while still recording min_eigenvalue: perturbative constructions can dip
    below zero outside their validity regime, and that is reported rather than
    repaired or rejected; psd_ok says whether it passes that validation.
    """

    min_eigenvalue: float
    _what = "density matrix"

    def __init__(self, entries, check_positive: bool = True):
        super().__init__(entries)
        m = self.entries
        tr = m.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr} is not 1 within 1e-10")
        lo = float(np.linalg.eigvalsh(m)[0])
        if check_positive and lo < _PSD_TOL:
            raise ValidationError(
                f"density matrix has eigenvalue {lo} below the PSD tolerance {_PSD_TOL}"
            )
        object.__setattr__(self, "min_eigenvalue", lo)

    @property
    def psd_ok(self) -> bool:
        """Whether min_eigenvalue passes the PSD tolerance check_positive applies."""
        return self.min_eigenvalue >= _PSD_TOL


def eigh(m):
    """np.linalg.eigh of a Hermitian matrix: unpacks as (w, v), eigenvalues
    ascending and eigenvectors as orthonormal columns.

    Accepts a HermitianMatrix (a DensityMatrix is one), whose entries go to
    the solver as they are, or a plain array, validated here as one would be.
    """
    a = m.entries if isinstance(m, HermitianMatrix) else _hermitian_array(m, "eigh input")
    return np.linalg.eigh(a)
