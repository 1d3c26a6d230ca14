"""Dense Hermitian linear algebra: eigendecomposition, spectral matrix
exponential, partial trace.

Matrices stay small (system dimension times a truncated Fock space); dense
numpy is the whole story here. Real-symmetric inputs keep real dtype
throughout, which matters for the large exact-diagonalization runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError

__all__ = [
    "HermitianMatrix",
    "DensityMatrix",
    "EigenDecomposition",
    "eigh",
    "matrix_exp_hermitian",
    "partial_trace",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = -1e-9


def _as_square_array(entries) -> np.ndarray:
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.number):
        raise ValidationError(f"expected numeric entries, got dtype {m.dtype}")
    m = m.astype(complex) if np.iscomplexobj(m) else m.astype(float)
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A validated Hermitian matrix. entries is read-only after construction."""

    entries: np.ndarray

    def __init__(self, entries):
        m = _as_square_array(entries)
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ValidationError(
                f"matrix is not Hermitian within {_HERM_TOL} absolute"
            )
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

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

    def __init__(self, entries, check_positive: bool = True):
        m = _as_square_array(entries)
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ValidationError("density matrix is not Hermitian within 1e-12")
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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_positive(self) -> bool:
        return self.min_eigenvalue >= _PSD_TOL

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _matrix_of(m) -> np.ndarray:
    if isinstance(m, (HermitianMatrix, DensityMatrix)):
        return m.entries
    return _as_square_array(m)


def eigh(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    Accepts a HermitianMatrix or a plain array; plain arrays are validated.
    The matrix is symmetrized (m + m†)/2 after validation so the solver sees
    an exactly Hermitian input.
    """
    a = _matrix_of(m)
    if np.max(np.abs(a - a.conj().T)) > _HERM_TOL:
        raise ValidationError("eigh requires a Hermitian matrix (tolerance 1e-12)")
    a = 0.5 * (a + a.conj().T)
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


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Trace out all tensor factors except dims[keep].

    m is a square matrix over the tensor product of the given subsystem
    dimensions (row-major / first-factor-major ordering). Returns a plain
    array; Tr(result) = Tr(m).
    """
    a = np.asarray(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims) or not dims:
        raise ValidationError(f"invalid subsystem dims {dims}")
    total = int(np.prod(dims))
    if a.ndim != 2 or a.shape != (total, total):
        raise ValidationError(
            f"matrix shape {a.shape} inconsistent with subsystem dims {dims}"
        )
    if not 0 <= keep < len(dims):
        raise ValidationError(f"keep index {keep} out of range for {len(dims)} factors")
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n + 2 > len(letters):
        raise ValidationError("too many tensor factors")
    row = list(letters[:n])
    col = list(letters[:n])
    col[keep] = letters[n]
    spec = "".join(row) + "".join(col) + "->" + row[keep] + col[keep]
    return np.einsum(spec, a.reshape(dims + dims))
