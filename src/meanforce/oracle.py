"""Ground truth by exact diagonalization of system plus truncated bath.

A handful of discretized modes with a Fock cutoff shared by every mode gives
a total Hamiltonian small enough for one dense eigensolve; the reduced thermal
state Tr_B[e^{-beta H}]/Z then needs no perturbative input at all. Few-mode baths
cannot converge to the continuum, so oracle comparisons test trends and the
single-mode displaced-trace identity, not continuum values.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DensityMatrix, HermitianMatrix, eigh
from .spectral import BathParams, DiscreteModes, SpectralDensity, overlap_kernel
from .steady import RenormalizationConvention, SystemSpec

__all__ = [
    "BathDiscretization",
    "OracleResult",
    "discretize",
    "build_total_hamiltonian",
    "exact_mean_force_state",
    "verify_trace_identity",
]

_DEFAULT_FOCK_CUTOFF = 25
_ORACLE_DIMENSION_CAP = 6000  # dense eigh beyond this is not desk-scale
_CONVERGENCE_TOL = 1e-6
_TRUNCATION_RECHECK_TOL = 1e-8


def _integer(value, name: str) -> int:
    """value as an int; a float or a string is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class BathDiscretization(DiscreteModes):
    """Discrete bath modes (g_k, omega_k) with a Fock cutoff shared by every mode.

    It is a DiscreteModes density, so the perturbative routes take the
    oracle's bath as it is; equality is by value, as for DiscreteModes.
    fock_cutoff None means automatic in exact_mean_force_state: at least 25,
    raised when the estimated displaced-plus-thermal occupancy approaches the
    truncation.
    """

    fock_cutoff: int | None = None

    def __init__(self, modes, fock_cutoff: int | None = None):
        super().__init__(modes)
        if fock_cutoff is not None:
            fock_cutoff = _integer(fock_cutoff, "fock_cutoff")
            if fock_cutoff < 1:
                raise ValidationError(f"fock_cutoff {fock_cutoff} must be at least 1")
        object.__setattr__(self, "fock_cutoff", fock_cutoff)


def discretize(sd: SpectralDensity, n: int, omega_max: float) -> BathDiscretization:
    """Midpoint rule on n equal bins of [w0, omega_max], w0 = sd.lower_edge.

    omega_k = w0 + (k - 1/2) d and g_k^2 = J(omega_k) d, d = (omega_max - w0)/n,
    so sum g_k^2/omega_k converges to the reorganization energy as n grows.
    Raises ValidationError when J is 0 at every midpoint: that bath cannot
    couple.
    """
    n = _integer(n, "the number of bins")
    if n < 1:
        raise ValidationError(f"need at least one bin, got {n}")
    lo = sd.lower_edge
    if not omega_max > lo:
        raise ValidationError(f"omega_max {omega_max} must be above the band's lower edge {lo:g}")
    k = np.arange(1, n + 1)
    w = lo + (k - 0.5) * (omega_max - lo) / n
    g = np.sqrt(sd(w) * (omega_max - lo) / n)
    if not np.any(g > 0):
        raise ValidationError(
            f"J is 0 at all {n} midpoints of [{lo:g}, {omega_max:g}], so no mode couples"
        )
    return BathDiscretization(tuple(zip(g, w)))


def _bath_operators(bd: BathDiscretization, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal of H_B, B) on the tensor product of truncated Fock spaces."""
    d1 = cutoff + 1
    ns = np.arange(1, d1)
    x = np.zeros((d1, d1))  # a + a^dagger on one mode's Fock space
    x[ns - 1, ns] = x[ns, ns - 1] = np.sqrt(ns)
    n_modes = bd.n_modes
    levels = np.indices((d1,) * n_modes).reshape(n_modes, -1)
    h_b = np.zeros(d1**n_modes)
    b = np.zeros((d1**n_modes, d1**n_modes))
    for k, (g, w) in enumerate(bd.modes):
        h_b += w * levels[k]
        b += g * np.kron(np.kron(np.eye(d1**k), x), np.eye(d1 ** (n_modes - k - 1)))
    return h_b, b


def reorganization_sum(bd: BathDiscretization) -> float:
    """Q of the discretized bath: sum g_k^2 / omega_k."""
    return bd.reorganization_energy()


def build_total_hamiltonian(
    sys: SystemSpec,
    bd: BathDiscretization,
    lam: float,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> HermitianMatrix:
    """H_S x I + lam A x B + I x H_B, plus lam^2 Q A^2 x I when Renormalized.

    The Fock cutoff is bd.fock_cutoff, which must be set.
    """
    cutoff = bd.fock_cutoff
    if cutoff is None:
        raise ValidationError("no Fock cutoff: give the bath one")
    bath_dim = (cutoff + 1) ** bd.n_modes
    total = sys.dim * bath_dim
    if total > _ORACLE_DIMENSION_CAP:
        raise ValidationError(
            f"total Hilbert dimension {total} ({sys.dim} x {cutoff + 1}^{bd.n_modes}, "
            f"Fock cutoff {cutoff}) exceeds the cap {_ORACLE_DIMENSION_CAP}; "
            "reduce modes or the Fock cutoff"
        )
    h_b, b = _bath_operators(bd, cutoff)
    a = sys.a.entries
    h_s = sys.h_s.entries
    if conv is RenormalizationConvention.RENORMALIZED:
        h_s = h_s + lam**2 * bd.reorganization_energy() * (a @ a)
    # Block (i, j) is h_s[i, j] I + lam a[i, j] B, plus H_B on the diagonal
    # blocks: the Kronecker sum, entry by entry in the same floating order.
    h = np.empty((total, total), dtype=np.result_type(h_s, a, b))
    blocks = h.reshape(sys.dim, bath_dim, sys.dim, bath_dim)
    diag = np.arange(bath_dim)
    for i in range(sys.dim):
        for j in range(sys.dim):
            block = blocks[i, :, j, :]
            np.multiply(b, a[i, j], out=block)
            block *= lam
            block[diag, diag] += h_s[i, j]
            if i == j:
                block[diag, diag] += h_b
    return HermitianMatrix(h)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact reduced thermal state with its convergence evidence.

    convergence rows are (fock_cutoff, trace distance to the full-cutoff
    state) for the two reduced-cutoff re-runs; non_converged marks the last
    gap above 1e-6. truncation_suspect marks an explicitly chosen cutoff that
    the occupancy estimate says is too small. No partition function is kept:
    the state is normalized from Boltzmann weights relative to the ground
    energy, which stay in range where Z_SB itself overflows or underflows.
    """

    state: DensityMatrix
    convergence: tuple
    fock_cutoff: int
    non_converged: bool
    truncation_suspect: bool


def _occupancy_estimate(bd: BathDiscretization, lam: float, beta: float, a_max: float) -> float:
    """Largest per-mode displaced-plus-thermal occupancy."""
    est = 0.0
    for g, w in bd.modes:
        thermal = 1.0 / math.expm1(beta * w) if beta * w < 700 else 0.0
        est = max(est, (lam * g * a_max / w) ** 2 + thermal)
    return est


def _reduced_thermal_state(
    sys: SystemSpec, bd: BathDiscretization, bath: BathParams,
    conv: RenormalizationConvention, cutoff: int,
) -> np.ndarray:
    """rho_S at one Fock cutoff, from one eigendecomposition of H."""
    h = build_total_hamiltonian(sys, BathDiscretization(bd.modes, cutoff), bath.lam, conv)
    w, v = eigh(h)
    # Boltzmann weights relative to the ground state stay in range at any
    # beta and energy offset; the shift cancels in the normalized state.
    weights = np.exp(-bath.beta * (w - w[0]))
    z_shift = float(np.sum(weights))
    # rho_S[i, j] = sum over bath states b and eigenstates n of
    # w_n V[(i, b), n] conj(V[(j, b), n]): scale V by sqrt(w_n) in place,
    # reshape it to (dim_S, bath_dim * D) and multiply by its adjoint.
    v *= np.sqrt(weights)
    v = v.reshape(sys.dim, -1)
    return (v @ v.conj().T) / z_shift


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def truncated_bath_partition(bd: BathDiscretization, beta: float, cutoff: int) -> float:
    """Z_B on the truncated Fock spaces: product of finite geometric sums.

    Each sum (1 - q^(cutoff+1))/(1 - q), q = e^{-beta w}, is taken through
    expm1, so it tends to cutoff + 1 as beta w -> 0 instead of 0/0.
    """
    z = 1.0
    for _, w in bd.modes:
        z *= math.expm1(-beta * w * (cutoff + 1)) / math.expm1(-beta * w)
    return z


def exact_mean_force_state(
    sys: SystemSpec,
    bd: BathDiscretization,
    bath: BathParams,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> OracleResult:
    """rho_S = Tr_B[e^{-beta H}]/Tr[e^{-beta H}] by dense diagonalization.

    Re-runs at fock_cutoff-5 and fock_cutoff-10 to produce the convergence
    table. An automatic cutoff (fock_cutoff=None on bd) is raised until it
    covers four times the occupancy estimate; an explicit cutoff is honored
    and only flagged.
    """
    a_max = float(np.max(np.abs(sys.a_eigenvalues)))
    est = _occupancy_estimate(bd, bath.lam, bath.beta, a_max)
    truncation_suspect = False
    if bd.fock_cutoff is None:
        cutoff = max(_DEFAULT_FOCK_CUTOFF, math.ceil(4.0 * est))
    else:
        cutoff = bd.fock_cutoff
        truncation_suspect = est > cutoff / 4.0
    rho = _reduced_thermal_state(sys, bd, bath, conv, cutoff)
    rows = []
    for c in sorted({c for c in (cutoff - 10, cutoff - 5) if c >= 1}):
        rows.append((c, _trace_distance(_reduced_thermal_state(sys, bd, bath, conv, c), rho)))
    non_converged = bool(rows[-1][1] > _CONVERGENCE_TOL) if rows else True
    return OracleResult(
        state=DensityMatrix(rho),
        convergence=tuple(rows),
        fock_cutoff=cutoff,
        non_converged=non_converged,
        truncation_suspect=truncation_suspect,
    )


def verify_trace_identity(
    bd: BathDiscretization,
    a_l: float,
    a_l2: float,
    lam: float,
    beta: float,
    u: float,
) -> tuple[float, float]:
    """Two routes to Tr[e^{-(beta-u) H_{B,l}} e^{-u H_{B,l'}}], single mode.

    H_{B,l} = H_B + lam a_l B + lam^2 a_l^2 g^2/omega is the displaced bath
    Hamiltonian (ground energy 0 before truncation). The closed form is
    Z_B e^{-lam^2 (a_{l'} - a_l)^2 K(u)} with the single-mode kernel and the
    same truncated Z_B, both at bd.fock_cutoff, which must be set. Returns
    (matrix trace, closed form); callers compare.
    """
    if bd.n_modes != 1:
        raise ValidationError(
            "the identity factorizes over modes; pass a single-mode bath"
        )
    if not 0 <= u <= beta:
        raise ValidationError(f"u = {u} must lie in [0, beta = {beta}]")
    cutoff = bd.fock_cutoff
    if cutoff is None:
        raise ValidationError("no Fock cutoff: give the bath one")
    g, w = bd.modes[0]

    def lhs_at(c: int) -> float:
        # sum_{n,m} e^{-(beta-u) E_n} |<n|m'>|^2 e^{-u E'_m}, from one eigh per
        # displaced Hamiltonian. Truncated, H_{B,l} is the Gram matrix
        # w (a + alpha)^dagger (a + alpha), so no exponent is positive.
        h_b, b = _bath_operators(bd, c)
        h_b, eye = np.diag(h_b), np.eye(c + 1)
        e, v = eigh(h_b + lam * a_l * b + lam**2 * a_l**2 * g**2 / w * eye)
        e2, v2 = eigh(h_b + lam * a_l2 * b + lam**2 * a_l2**2 * g**2 / w * eye)
        overlap = np.abs(v.conj().T @ v2) ** 2
        return float(np.exp(-(beta - u) * e) @ overlap @ np.exp(-u * e2))

    lhs = lhs_at(cutoff)
    recheck = lhs_at(cutoff + 10)
    if abs(recheck / lhs - 1.0) > _TRUNCATION_RECHECK_TOL:
        warnings.warn(
            f"Fock cutoff {cutoff} looks too small: trace moves by "
            f"{abs(recheck / lhs - 1.0):.3g} at cutoff+10",
            stacklevel=2,
        )
    k_u = overlap_kernel(bd, beta, u)
    rhs = truncated_bath_partition(bd, beta, cutoff) * math.exp(
        -(lam**2) * (a_l2 - a_l) ** 2 * k_u
    )
    return lhs, rhs
