"""Perturbative mean force Gibbs state for a finite-dimensional system.

The state is diagonal in the eigenbasis of the coupling observable A at
leading order in the inverse coupling, with populations set by the pseudo
energies h_l = <a_l|H_S|a_l>; the first correction restores coherences
through the kernel integrals f_{l,l'}(beta), available in three evaluation
methods of increasing approximation (exact quadrature, a Dawson-function
high-temperature form, and an inverse-coupling series).

Two bookkeeping conventions are supported: Renormalized treats the
counterterm-including Hamiltonian as fundamental (pseudo energies h_l);
Natural removes the counterterm, shifting each pseudo energy by
-lambda^2 a_l^2 Q. For couplings with uniform a_l^2 (e.g. A = sigma_z) the
two give identical states.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericsError, UnsupportedOperationError, ValidationError
from .linalg import DensityMatrix, HermitianMatrix, eigh
from .special import QuadratureResult, QuadratureSettings, dawson, integrate_finite
from .spectral import BathParams, SpectralDensity, _overlap_kernel_batch

__all__ = [
    "SystemSpec",
    "CorrectionMethod",
    "RenormalizationConvention",
    "RegimeThresholds",
    "CorrectionResult",
    "zeroth_order_state",
    "f_exact",
    "f_high_t",
    "f_series",
    "steady_state",
    "regime_diagnostics",
]

_MIN_GAP_REL = 1e-9
_COMMUTATOR_TOL = 1e-12


class CorrectionMethod(Enum):
    EXACT_QUADRATURE = "exact"
    HIGH_TEMPERATURE_DAWSON = "high-t"
    ULTRASTRONG_SERIES = "series"


class RenormalizationConvention(Enum):
    RENORMALIZED = "renormalized"
    NATURAL = "natural"


@dataclass(frozen=True)
class RegimeThresholds:
    """Validity markers reported in diagnostics (never enforced).

    strong_coupling: lambda^2 Q / max|h_l| at or above this is ultrastrong;
    series: lambda^2 Q beta at or above this supports the series method;
    high_t: omega_c beta at or below this supports the Dawson method.
    """

    strong_coupling: float = 1.0
    series: float = 3.0
    high_t: float = 0.5


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """System Hamiltonian H_S and coupling observable A, prediagonalized.

    Derived on construction: the ascending eigenvalues a_l of A and their
    eigenvectors, the matrix elements h_{l,l'} = <a_l|H_S|a_l'> (pseudo
    energies on the diagonal), the gaps h_l - h_{l'}, and the eigenvalue
    differences a_l - a_{l'}.

    A must have nondegenerate eigenvalues (the displaced-bath derivation
    divides by a_l - a_{l'}) and [H_S, A] must not vanish (otherwise there is
    nothing to correct and the steady-state assumption behind the expansion
    fails).
    """

    h_s: HermitianMatrix
    a: HermitianMatrix
    a_eigenvalues: np.ndarray
    a_eigenvectors: np.ndarray
    h_elements: np.ndarray
    gaps: np.ndarray
    a_diffs: np.ndarray

    def __init__(self, h_s, a):
        h_s = h_s if isinstance(h_s, HermitianMatrix) else HermitianMatrix(h_s)
        a = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
        if h_s.dim != a.dim:
            raise ValidationError(
                f"H_S and A dimensions differ: {h_s.dim} vs {a.dim}"
            )
        if h_s.dim < 2:
            raise ValidationError("system dimension must be at least 2")
        comm = h_s.entries @ a.entries - a.entries @ h_s.entries
        if np.max(np.abs(comm)) <= _COMMUTATOR_TOL:
            raise ValidationError(
                "[H_S, A] vanishes; the coupling eigenbasis is already stationary"
            )
        dec = eigh(a)
        vals = dec.eigenvalues
        spread = float(vals[-1] - vals[0])
        if spread <= 0 or np.min(np.diff(vals)) <= _MIN_GAP_REL * spread:
            raise ValidationError(
                "coupling observable has (near-)degenerate eigenvalues; "
                f"minimum relative gap {_MIN_GAP_REL} required"
            )
        h_el = dec.eigenvectors.conj().T @ h_s.entries @ dec.eigenvectors
        h_diag = np.real(np.diag(h_el))
        for arr in (vals, dec.eigenvectors, h_el):
            arr.flags.writeable = False
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_eigenvalues", vals)
        object.__setattr__(self, "a_eigenvectors", dec.eigenvectors)
        object.__setattr__(self, "h_elements", h_el)
        object.__setattr__(self, "gaps", h_diag[:, None] - h_diag[None, :])
        object.__setattr__(self, "a_diffs", vals[:, None] - vals[None, :])

    @property
    def dim(self) -> int:
        return self.h_s.dim

    @property
    def pseudo_energies(self) -> np.ndarray:
        """h_l = <a_l|H_S|a_l>, indexed by ascending a_l."""
        return np.real(np.diag(self.h_elements))


def _effective_energies(
    sys: SystemSpec,
    bath: BathParams,
    conv: RenormalizationConvention,
    sd: SpectralDensity | None,
) -> np.ndarray:
    """Pseudo energies defining the zeroth-order populations."""
    h = sys.pseudo_energies
    if conv is RenormalizationConvention.RENORMALIZED:
        return h
    if sd is None:
        raise ValidationError("Natural convention needs a spectral density for Q")
    q = sd.reorganization_energy()
    return h - bath.lam**2 * sys.a_eigenvalues**2 * q


def _populations(energies: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (energies - np.min(energies)))
    return w / np.sum(w)


def zeroth_order_state(
    sys: SystemSpec,
    bath: BathParams,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
    sd: SpectralDensity | None = None,
) -> DensityMatrix:
    """Infinite-coupling limit: diagonal in the A eigenbasis.

    Populations are e^{-beta e_l}/Z with e_l = h_l (Renormalized) or
    h_l - lambda^2 a_l^2 Q (Natural, which therefore needs sd).
    """
    p = _populations(_effective_energies(sys, bath, conv, sd), bath.beta)
    v = sys.a_eigenvectors
    return DensityMatrix((v * p) @ v.conj().T)


def _gap(sys, bath, conv, sd, l, l2) -> float:
    """Convention-matched gap: plain h_l - h_{l'} or its renormalized version."""
    if conv is RenormalizationConvention.RENORMALIZED:
        return float(sys.gaps[l, l2])
    e = _effective_energies(sys, bath, conv, sd)
    return float(e[l] - e[l2])


def _check_pair(sys: SystemSpec, l: int, l2: int) -> None:
    if not (0 <= l < sys.dim and 0 <= l2 < sys.dim):
        raise ValidationError(f"indices ({l}, {l2}) out of range for dim {sys.dim}")
    if l == l2:
        raise ValidationError("f_{l,l'} requires l != l'")


_EXP_CAP = 700.0  # just under log(realmax); e^{beta*gap} appears in every method


def _check_gap_range(omega: float, beta: float) -> None:
    # f carries a factor e^{beta*gap} (the u=beta endpoint of the integrand,
    # where the kernel vanishes), so past this the value is not a double.
    if beta * omega > _EXP_CAP:
        raise NumericsError(
            "coherence integral overflows double precision: "
            f"beta*gap = {beta * omega:.6g} exceeds {_EXP_CAP}"
        )


def f_exact(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    l: int,
    l2: int,
    q: QuadratureSettings | None = None,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> QuadratureResult:
    """f_{l,l'}(beta) = int_0^beta du e^{u w_{l,l'}} e^{-lambda^2 a_{l',l}^2 K(u)}.

    Nested quadrature: the kernel K is itself an omega-integral, evaluated
    batched over the u nodes at 10x tighter tolerance. Under the Natural
    convention the gap in the exponent is the renormalized one.
    """
    _check_pair(sys, l, l2)
    s = q or QuadratureSettings()
    omega = _gap(sys, bath, conv, sd, l, l2)
    _check_gap_range(omega, bath.beta)
    a2 = float(sys.a_diffs[l2, l] ** 2)
    lam2 = bath.lam**2
    beta = bath.beta
    scale = lam2 * a2

    if scale == 0.0:

        def integrand(u):
            return np.exp(np.asarray(u, dtype=float) * omega)

    else:
        # An absolute kernel error dK perturbs the integrand by the relative
        # amount scale*dK, so budget a tenth of the outer relative tolerance.
        inner = dataclasses.replace(
            s,
            rel_tol=0.1 * s.rel_tol,
            abs_tol=max(0.1 * s.abs_tol, 0.1 * s.rel_tol / scale),
        )

        def integrand(u):
            u = np.asarray(u, dtype=float)
            k = _overlap_kernel_batch(sd, beta, u, inner)
            return np.exp(u * omega - scale * k)

    res = integrate_finite(integrand, 0.0, beta, s)
    value = float(res.value)
    if not value > 0:
        raise ValidationError(f"f_exact produced a nonpositive value {value}")
    return QuadratureResult(value, res.error_estimate, res.evaluations)


def f_high_t(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    l: int,
    l2: int,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> float:
    """High-temperature closed form of f_{l,l'} via the Dawson function.

    Exact for the parabolic kernel K(u) = u(1-u/beta)Q, which the true kernel
    approaches when omega_c*beta is small.
    """
    _check_pair(sys, l, l2)
    lam = bath.lam
    if lam == 0:
        raise UnsupportedOperationError(
            "the Dawson form is singular at lambda=0; use f_exact"
        )
    q = sd.reorganization_energy()
    beta = bath.beta
    omega = _gap(sys, bath, conv, sd, l, l2)
    _check_gap_range(omega, beta)
    aa = abs(float(sys.a_diffs[l2, l]))
    root = np.sqrt(beta / q)
    pref = root / (lam * aa)
    x1 = (root / (2.0 * lam * aa)) * (lam**2 * aa**2 * q - omega)
    x2 = (root / (2.0 * lam * aa)) * (lam**2 * aa**2 * q + omega)
    return pref * (dawson(x1) + np.exp(beta * omega) * dawson(x2))


def f_series(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    l: int,
    l2: int,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> float:
    """Leading inverse-coupling series for f_{l,l'}.

    Renormalized: (1+e^{w b})/(lambda^2 a^2 Q) + w(1-e^{w b})/(lambda^2 a^2 Q)^2
    with w the plain gap. The Natural variant splits by 1/a_l and 1/a_{l'}
    (and so requires both eigenvalues nonzero); its exponentials carry the
    renormalized gap while the second-order prefactor keeps the plain gap,
    matching the way the expansion is organized.
    """
    _check_pair(sys, l, l2)
    lam = bath.lam
    if lam == 0:
        raise UnsupportedOperationError(
            "the inverse-coupling series is singular at lambda=0; use f_exact"
        )
    q = sd.reorganization_energy()
    beta = bath.beta
    omega = float(sys.gaps[l, l2])
    _check_gap_range(_gap(sys, bath, conv, sd, l, l2), beta)
    if conv is RenormalizationConvention.RENORMALIZED:
        a2 = float(sys.a_diffs[l2, l] ** 2)
        e = np.exp(omega * beta)
        c = lam**2 * a2 * q
        return float((1.0 + e) / c + omega * (1.0 - e) / c**2)
    a_l = float(sys.a_eigenvalues[l])
    a_l2 = float(sys.a_eigenvalues[l2])
    if a_l == 0.0 or a_l2 == 0.0:
        raise ValidationError(
            "the Natural-convention series divides by the coupling eigenvalues; "
            f"a_{l}={a_l}, a_{l2}={a_l2} must both be nonzero"
        )
    omega_r = _gap(sys, bath, conv, sd, l, l2)
    e = np.exp(omega_r * beta)
    d = a_l - a_l2
    first = (1.0 / a_l - e / a_l2) / (2.0 * lam**2 * q * d)
    second = (omega / (4.0 * lam**4 * q**2 * d**2)) * (1.0 / a_l**2 - e / a_l2**2)
    return float(first + second)


def regime_diagnostics(
    sys: SystemSpec,
    lam2q: float,
    beta: float,
    sd: SpectralDensity,
    th: RegimeThresholds | None = None,
) -> dict:
    """The regime markers, with the ratios they compare to the thresholds."""
    th = th or RegimeThresholds()
    h_scale = float(np.max(np.abs(sys.pseudo_energies)))
    coupling_ratio = lam2q / h_scale if h_scale > 0 else np.inf
    omega_c_beta = sd.cutoff * beta
    return {
        "lambda2_q_beta": lam2q * beta,
        "omega_c_beta": omega_c_beta,
        "coupling_ratio": coupling_ratio,
        "strong_coupling": bool(coupling_ratio >= th.strong_coupling),
        "series_regime": bool(lam2q * beta >= th.series),
        "high_t_regime": bool(omega_c_beta <= th.high_t),
    }


@dataclass(frozen=True, eq=False)
class CorrectionResult:
    """First-order mean force state with its ingredients and diagnostics.

    f_values has zeros on the diagonal. diagnostics carries per-entry
    quadrature error estimates, the regime markers, and the PSD report
    (negative eigenvalues are flagged, never repaired).
    """

    populations: np.ndarray
    f_values: np.ndarray
    state: DensityMatrix
    method: CorrectionMethod
    convention: RenormalizationConvention
    diagnostics: dict


def steady_state(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    method: CorrectionMethod = CorrectionMethod.EXACT_QUADRATURE,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
    q: QuadratureSettings | None = None,
    thresholds: RegimeThresholds | None = None,
) -> CorrectionResult:
    """Assemble the mean force state to first order in the inverse coupling.

    Populations sit on the diagonal in the A eigenbasis; each coherence is the
    symmetrized combination
        rho_{l,l'} = -1/2 (p_l h_{l,l'} f_{l,l'} + conj(h_{l',l}) p_{l'} f_{l',l}),
    which is Hermitian by construction regardless of quadrature error. The
    trace is carried by the populations alone.
    """
    s = q or QuadratureSettings()
    th = thresholds or RegimeThresholds()
    beta, lam = bath.beta, bath.lam
    energies = _effective_energies(sys, bath, conv, sd)
    p = _populations(energies, beta)
    dim = sys.dim

    f = np.zeros((dim, dim))
    f_err = np.zeros((dim, dim))
    f_evals = np.zeros((dim, dim), dtype=int)
    for l in range(dim):
        for l2 in range(dim):
            if l == l2:
                continue
            if method is CorrectionMethod.EXACT_QUADRATURE:
                r = f_exact(sys, bath, sd, l, l2, s, conv)
                f[l, l2] = r.value
                f_err[l, l2] = r.error_estimate
                f_evals[l, l2] = r.evaluations
            elif method is CorrectionMethod.HIGH_TEMPERATURE_DAWSON:
                f[l, l2] = f_high_t(sys, bath, sd, l, l2, conv)
            else:
                f[l, l2] = f_series(sys, bath, sd, l, l2, conv)

    # m[l, l'] = p_l h_{l,l'} f_{l,l'}; its conjugate transpose is the second
    # term. rho_a stays complex for a real h too: a real rho_a sends the basis
    # change below down another BLAS path, which moves the state's last bits.
    m = p[:, None] * sys.h_elements * f
    rho_a = (-0.5 * (m + m.conj().T)).astype(complex)
    np.fill_diagonal(rho_a, p)
    v = sys.a_eigenvectors
    rho = v @ rho_a @ v.conj().T
    state = DensityMatrix(rho, check_positive=False)

    lam2q = lam**2 * sd.reorganization_energy()
    diagnostics = {
        "f_error_estimates": f_err,
        "f_evaluations": f_evals,
        **regime_diagnostics(sys, lam2q, beta, sd, th),
        "min_eigenvalue": state.min_eigenvalue,
        "psd_ok": bool(state.min_eigenvalue >= -1e-9),
        "psd_warning": bool(state.min_eigenvalue < -1e-3),
    }
    return CorrectionResult(p, f, state, method, conv, diagnostics)
