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
-lambda^2 a_l^2 Q. That shift is taken less its smallest value,
-lambda^2 Q (a_l^2 - min a^2), which gives the same state (a common shift
cancels) and keeps the h_l's digits at any coupling. For couplings with
uniform a_l^2 (e.g. A = sigma_z) the two conventions give identical states.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, UnsupportedOperationError, ValidationError
from .linalg import DensityMatrix, HermitianMatrix, eigh
from .special import QuadratureResult, QuadratureSettings, dawson, integrate_finite
from .spectral import BathParams, SpectralDensity, _overlap_kernel_batch

__all__ = [
    "SystemSpec",
    "CorrectionMethod",
    "RenormalizationConvention",
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
# Regime markers, reported in diagnostics and never enforced.
_STRONG_COUPLING = 1.0  # lambda^2 Q / max|h_l| at or above this is ultrastrong
_SERIES_REGIME = 3.0  # lambda^2 Q beta at or above this supports the series method
_HIGH_T_REGIME = 0.5  # omega_c beta at or below this supports the Dawson method


class CorrectionMethod(Enum):
    EXACT_QUADRATURE = "exact"
    HIGH_TEMPERATURE_DAWSON = "high-t"
    ULTRASTRONG_SERIES = "series"


class RenormalizationConvention(Enum):
    RENORMALIZED = "renormalized"
    NATURAL = "natural"


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """System Hamiltonian H_S and coupling observable A, prediagonalized.

    Derived once, on construction: the ascending eigenvalues a_l of A and
    their eigenvectors, the matrix elements h_{l,l'} = <a_l|H_S|a_l'> and their
    real diagonal, the pseudo energies h_l. All are read-only.

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
    pseudo_energies: np.ndarray  # h_l = <a_l|H_S|a_l>, indexed by ascending a_l

    def __init__(self, h_s, a):
        h_s, a = HermitianMatrix(h_s), HermitianMatrix(a)
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
        vals, vecs = eigh(a)
        spread = float(vals[-1] - vals[0])
        if spread <= 0 or np.min(np.diff(vals)) <= _MIN_GAP_REL * spread:
            raise ValidationError(
                "coupling observable has (near-)degenerate eigenvalues; "
                f"minimum relative gap {_MIN_GAP_REL} required"
            )
        h_el = vecs.conj().T @ h_s.entries @ vecs
        pseudo = np.real(np.diag(h_el)).copy()
        for arr in (vals, vecs, h_el, pseudo):
            arr.flags.writeable = False
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_eigenvalues", vals)
        object.__setattr__(self, "a_eigenvectors", vecs)
        object.__setattr__(self, "h_elements", h_el)
        object.__setattr__(self, "pseudo_energies", pseudo)

    @property
    def dim(self) -> int:
        return self.h_s.dim


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
    # A uniform a_l^2 past lambda = 1.3e154 gives inf * 0 = nan: refused like inf.
    a2 = sys.a_eigenvalues**2
    with np.errstate(over="ignore", invalid="ignore"):
        shift = np.float64(bath.lam) ** 2 * (a2 - a2.min()) * q
    if not np.isfinite(shift).all():
        raise _coupling_overflow(bath.lam)
    return h - shift


def _populations(energies: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def zeroth_order_state(
    sys: SystemSpec,
    bath: BathParams,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
    sd: SpectralDensity | None = None,
) -> DensityMatrix:
    """Infinite-coupling limit: diagonal in the A eigenbasis.

    Populations are e^{-beta e_l}/Z with e_l = h_l (Renormalized) or
    h_l - lambda^2 Q (a_l^2 - min a^2) (Natural, which therefore needs sd;
    the common shift lambda^2 Q min a^2 cancels in Z).
    """
    p = _populations(_effective_energies(sys, bath, conv, sd), bath.beta)
    v = sys.a_eigenvectors
    return DensityMatrix((v * p) @ v.conj().T)


_EXP_CAP = 700.0  # just under log(realmax); e^{beta*gap} appears in every method
# f_exact's integrand has a layer of width beta/x at u = 0, x = lambda^2
# (a_l - a_l')^2 Q beta, as K'(0) = Q, and its first panels start inside it.
# The spin-boson at Lorentz-Drude w_c = 0.25, beta = 1 is within 2.2e-16 of
# 20-digit mpmath nested quadrature at x = 1e8 and 1e9, and its distance to
# high-t falls as 1/x up to x = 1.2e11 (also at beta = 3, w_c = 2, and
# ohmic), with error estimates of 3.7e-13 of f. With the generic first
# panels it was 100 % off from x = 4.8e7. The largest pair's x is held to a
# quarter of 4e9, the last point checked against mpmath.
_EXACT_X_MAX = 1e9


def _layer_breakpoints(beta: float, omega: np.ndarray, slope: np.ndarray) -> np.ndarray | None:
    """f_exact's first panel edges on [0, beta/2], or None (the generic ones)
    where no pair has a layer narrower than beta/4.

    As K'(0) = Q, the folded integrand of pair s leaves u = 0 at the rates
    omega_s - slope_s and -(omega_s + slope_s) (slope = x/beta), layers of
    width 1/|rate|. Rungs go in decades from a tenth of the narrowest width
    up to 100 of the widest (past which a layer holds e^-100 of its mass),
    below beta/4, then 2 equal panels to beta/2.
    """
    with np.errstate(divide="ignore", over="ignore"):
        widths = 1.0 / np.abs(np.concatenate((omega - slope, omega + slope), axis=None))
    widths = widths[(widths > 0.0) & (widths < np.inf)]
    if widths.size == 0:
        return None
    lo = math.log10(widths.min()) - 1.0
    hi = math.log10(min(100.0 * widths.max(), 0.25 * beta))
    with np.errstate(over="ignore"):
        rungs = 10.0 ** (lo + np.arange(max(math.ceil(hi - lo - 1e-9), 0) + 1))
    rungs = rungs[(rungs > 0.0) & (rungs < 0.25 * beta)]
    if rungs.size == 0:
        return None
    return np.concatenate(([0.0], rungs, [0.5 * (rungs[-1] + 0.5 * beta), 0.5 * beta]))


def _coupling_overflow(lam: float) -> NumericsError:
    return NumericsError(f"coupling lambda^2 (a_l - a_l')^2 overflows at lambda = {lam:.6g}")


def _coupling(sys: SystemSpec, lam: float, l, l2) -> np.ndarray:
    """lambda^2 (a_l - a_l')^2 for index pairs, or NumericsError where it overflows."""
    a = sys.a_eigenvalues
    with np.errstate(over="ignore"):  # np.float64: a float's ** raises past 1.3e154
        s = np.float64(lam) ** 2 * (a[l2] - a[l]) ** 2
    if not np.isfinite(s).all():
        raise _coupling_overflow(lam)
    return s


def _pair_indices(sys: SystemSpec, l, l2) -> tuple[np.ndarray, np.ndarray]:
    """l and l2 as arrays, refused (ValidationError) unless they are ints or
    matching integer arrays of distinct indices within the system."""
    l, l2 = np.asarray(l), np.asarray(l2)
    if l.shape != l2.shape or l.size == 0 or {l.dtype.kind, l2.dtype.kind} - set("iu"):
        raise ValidationError(f"pair indices must be ints or matching integer arrays: {l}, {l2}")
    if np.any((l < 0) | (l >= sys.dim) | (l2 < 0) | (l2 >= sys.dim)):
        raise ValidationError(f"indices ({l}, {l2}) out of range for dim {sys.dim}")
    if np.any(l == l2):
        raise ValidationError("f_{l,l'} requires l != l'")
    return l, l2


@functools.lru_cache(maxsize=8)
def _off_diagonal(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (l, l') with l != l' of a dim-level system, row by
    row, as read-only index arrays."""
    l, l2 = np.nonzero(~np.eye(dim, dtype=bool))
    l.flags.writeable = l2.flags.writeable = False
    return l, l2


class _PairTable(NamedTuple):
    """One route call's ordered pairs (l, l') and what its kernel reads of
    them: the zeroth-order populations p of every level, and per pair the
    convention-matched gap omega = e_l - e_l' and the coupling scale =
    lambda^2 (a_l - a_l')^2, each in l's shape."""

    l: np.ndarray
    l2: np.ndarray
    populations: np.ndarray
    omega: np.ndarray
    scale: np.ndarray


def _pair_table(sys, bath, conv, sd, l, l2, cap: bool = True) -> _PairTable:
    """The pair table of valid indices l, l2 (ints or matching arrays).

    Refused with NumericsError where lambda^2 (a_l - a_l')^2 overflows (in
    the Natural energies too) and, with cap, where beta * gap passes
    _EXP_CAP: f carries a factor e^{beta*gap} (the u = beta endpoint of its
    integrand, where the kernel vanishes), so past it f is not a double. The
    gap is the plain h_l - h_l' or its renormalized version.
    """
    e = _effective_energies(sys, bath, conv, sd)
    omega = e[l] - e[l2]
    if cap:
        top = bath.beta * omega.max()
        if top > _EXP_CAP:
            raise NumericsError(
                "coherence integral overflows double precision: "
                f"beta*gap = {top:.6g} exceeds {_EXP_CAP}"
            )
    return _PairTable(l, l2, _populations(e, bath.beta), omega, _coupling(sys, bath.lam, l, l2))


def _scalar_or_array(x):
    """A float for a single pair, the array for index arrays."""
    return float(x) if np.ndim(x) == 0 else x


def f_exact(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    l: int | np.ndarray,
    l2: int | np.ndarray,
    q: QuadratureSettings | None = None,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> QuadratureResult:
    """f_{l,l'}(beta) = int_0^beta du e^{u w_{l,l'}} e^{-lambda^2 a_{l',l}^2 K(u)}.

    As K(u) = K(beta - u), it is folded at beta/2 and divided by its bound
    e^{max(0, beta w)}: int_0^{beta/2} (e^{-u|w|} + e^{-(beta-u)|w|}) e^{-lambda^2
    a^2 K(u)} du. f_{l,l'} and f_{l',l} thus share their integrand node by
    node (detailed balance holds to rounding), and the shared max-norm
    stopping rule weighs all pairs alike however far their f values spread.
    Nested quadrature: K is itself an omega-integral, batched over the u
    nodes of a whole panel batch at 10x tighter tolerance. Under the Natural
    convention the gap is the renormalized one. The outer quadrature starts
    on panels in decades of every pair's boundary layers at u = 0, widths
    1/|w -+ x/beta| (_layer_breakpoints), or, where no pair has one (lambda =
    0, or every layer wider than beta/4), on integrate_finite's generic ones.
    Its absolute floor falls as 1/x past x = 1, as f does, so rel_tol holds.

    l and l2 may be matching integer arrays: every pair is then one component
    of a single vector-valued integrand, so K is evaluated once per panel
    batch for all of them, and the value is an array of their shape. The
    pairs share the evaluation count; component_errors holds each pair's own
    error estimate, in the value's shape, and error_estimate is the largest.
    Refused with NumericsError where the largest pair's x passes _EXACT_X_MAX.
    """
    t = _pair_table(sys, bath, conv, sd, *_pair_indices(sys, l, l2))
    omega, scale = t.omega, t.scale
    s = q or QuadratureSettings()
    beta = bath.beta
    top = float(np.max(scale))
    slope = scale * sd.reorganization_energy()  # x/beta of every pair
    x = top * sd.reorganization_energy() * beta
    if not x <= _EXACT_X_MAX:
        raise NumericsError(f"f_exact is refused at lambda^2 (a_l - a_l')^2 Q beta = {x:.3g}, "
                            f"past {_EXACT_X_MAX:g}")
    inner = None  # lambda = 0: the kernel drops out
    if top > 0.0:
        # An absolute kernel error dK perturbs the integrand by the relative
        # amount scale*dK, so budget a tenth of the outer relative tolerance
        # over the largest scale, the tightest budget. Where top is so small
        # that the budget overflows, the largest double takes its place.
        budget = min(max(0.1 * s.abs_tol, 0.1 * s.rel_tol / top), np.finfo(float).max)
        inner = dataclasses.replace(s, rel_tol=0.1 * s.rel_tol, abs_tol=budget)
    rate = np.abs(omega)

    def integrand(u):
        k = 0.0 if inner is None else _overlap_kernel_batch(sd, beta, u, inner)
        e = np.exp(-np.multiply.outer(u, rate)) + np.exp(-np.multiply.outer(beta - u, rate))
        return e * np.exp(-np.multiply.outer(k, scale))

    breakpoints = None if inner is None else _layer_breakpoints(beta, omega, slope)
    outer = dataclasses.replace(s, abs_tol=s.abs_tol / max(1.0, x))
    res = integrate_finite(integrand, 0.0, 0.5 * beta, outer, breakpoints=breakpoints)
    bound = np.exp(np.maximum(beta * omega, 0.0))
    value = res.value * bound
    if not np.all(value > 0):
        raise NumericsError(f"f_exact produced a nonpositive value {value}")
    errors = res.component_errors * bound
    return QuadratureResult(
        _scalar_or_array(value), float(np.max(errors)), res.evaluations,
        _scalar_or_array(errors),
    )


def _refuse_zero_coupling(lam: float, form: str) -> None:
    if lam == 0:
        raise UnsupportedOperationError(f"{form} is singular at lambda=0; use f_exact")


def _high_t(sys: SystemSpec, bath: BathParams, sd: SpectralDensity, t: _PairTable, conv) -> np.ndarray:
    """f_high_t's values on a pair table (lambda != 0)."""
    lam, beta, omega = bath.lam, bath.beta, t.omega
    q = sd.reorganization_energy()
    aa = np.abs(sys.a_eigenvalues[t.l2] - sys.a_eigenvalues[t.l])
    root = math.sqrt(beta / q)
    c = t.scale * q
    d1, d2 = dawson((root / (2.0 * lam * aa)) * np.array([c - omega, c + omega]))
    return root / (lam * aa) * (d1 + np.exp(beta * omega) * d2)


def _series(sys: SystemSpec, bath: BathParams, sd: SpectralDensity, t: _PairTable, conv) -> np.ndarray:
    """f_series's values on a pair table (lambda != 0)."""
    q = sd.reorganization_energy()
    l, l2 = t.l, t.l2
    h = sys.pseudo_energies
    omega = h[l] - h[l2]  # the plain gap; t.omega is the renormalized one
    e = np.exp(t.omega * bath.beta)
    # Each second term's denominator overflows to inf at a coupling (c past
    # 1.3e154, lambda past 1e77) where the term is below the first's rounding:
    # it then adds 0, the 1/c limit.
    if conv is RenormalizationConvention.RENORMALIZED:
        c = t.scale * q
        with np.errstate(over="ignore"):
            return (1.0 + e) / c + omega * (1.0 - e) / c**2
    a_l = sys.a_eigenvalues[l]
    a_l2 = sys.a_eigenvalues[l2]
    if np.any(a_l == 0.0) or np.any(a_l2 == 0.0):
        raise ValidationError(
            "the Natural-convention series divides by the coupling eigenvalues; "
            f"a_l={a_l}, a_l'={a_l2} must all be nonzero"
        )
    d = a_l - a_l2
    lam = np.float64(bath.lam)  # lambda^2 is finite here: the pair table has formed it
    first = (1.0 / a_l - e / a_l2) / (2.0 * lam**2 * q * d)
    with np.errstate(over="ignore"):
        second = (omega / (4.0 * lam**4 * q**2 * d**2)) * (1.0 / a_l**2 - e / a_l2**2)
    return first + second


# Each closed form's kernel and the name its lambda = 0 refusal gives it.
_CLOSED_FORMS = {
    CorrectionMethod.HIGH_TEMPERATURE_DAWSON: (_high_t, "the Dawson form"),
    CorrectionMethod.ULTRASTRONG_SERIES: (_series, "the inverse-coupling series"),
}


def _closed_form(method, sys, bath, sd, l, l2, conv):
    """A closed form's f at index pairs: their validation, then the table."""
    kernel, form = _CLOSED_FORMS[method]
    _refuse_zero_coupling(bath.lam, form)
    t = _pair_table(sys, bath, conv, sd, *_pair_indices(sys, l, l2))
    return _scalar_or_array(kernel(sys, bath, sd, t, conv))


def f_high_t(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    l: int | np.ndarray,
    l2: int | np.ndarray,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> float | np.ndarray:
    """High-temperature closed form of f_{l,l'} via the Dawson function.

    Exact for the parabolic kernel K(u) = u(1-u/beta)Q, which the true kernel
    approaches when omega_c*beta is small. Elementwise over index arrays,
    with one dawson call for the two arguments of every pair.
    """
    return _closed_form(CorrectionMethod.HIGH_TEMPERATURE_DAWSON, sys, bath, sd, l, l2, conv)


def f_series(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    l: int | np.ndarray,
    l2: int | np.ndarray,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
) -> float | np.ndarray:
    """Leading inverse-coupling series for f_{l,l'}, elementwise over index arrays.

    Renormalized: (1+e^{w b})/(lambda^2 a^2 Q) + w(1-e^{w b})/(lambda^2 a^2 Q)^2
    with w the plain gap. The Natural variant splits by 1/a_l and 1/a_{l'}
    (and so requires both eigenvalues nonzero); its exponentials carry the
    renormalized gap while the second-order prefactor keeps the plain gap,
    matching the way the expansion is organized.
    """
    return _closed_form(CorrectionMethod.ULTRASTRONG_SERIES, sys, bath, sd, l, l2, conv)


def regime_diagnostics(
    sys: SystemSpec,
    lam2q: float,
    beta: float,
    sd: SpectralDensity,
) -> dict:
    """The regime markers, with the ratios they compare to the module's thresholds."""
    h_scale = float(np.abs(sys.pseudo_energies).max())
    coupling_ratio = lam2q / h_scale if h_scale > 0 else np.inf
    omega_c_beta = sd.cutoff * beta
    return {
        "lambda2_q_beta": lam2q * beta,
        "omega_c_beta": omega_c_beta,
        "coupling_ratio": coupling_ratio,
        "strong_coupling": bool(coupling_ratio >= _STRONG_COUPLING),
        "series_regime": bool(lam2q * beta >= _SERIES_REGIME),
        "high_t_regime": bool(omega_c_beta <= _HIGH_T_REGIME),
    }


@dataclass(frozen=True, eq=False)
class CorrectionResult:
    """First-order mean force state with its ingredients and diagnostics.

    f_values has zeros on the diagonal. diagnostics carries the quadrature
    error estimate per entry (for exact, each pair's own estimate), the
    evaluation count all pairs share (0 for the closed forms) and the regime
    markers. The PSD report is the state's own min_eigenvalue and psd_ok
    (negative eigenvalues are flagged, never repaired).
    """

    populations: np.ndarray
    f_values: np.ndarray
    state: DensityMatrix
    diagnostics: dict


def steady_state(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    method: CorrectionMethod = CorrectionMethod.EXACT_QUADRATURE,
    conv: RenormalizationConvention = RenormalizationConvention.RENORMALIZED,
    q: QuadratureSettings | None = None,
) -> CorrectionResult:
    """Assemble the mean force state to first order in the inverse coupling.

    Populations sit on the diagonal in the A eigenbasis; each coherence is the
    symmetrized combination
        rho_{l,l'} = -1/2 (p_l h_{l,l'} f_{l,l'} + conj(h_{l',l}) p_{l'} f_{l',l}),
    which is Hermitian by construction regardless of quadrature error. The
    trace is carried by the populations alone.

    Each call reads the system's ordered pairs from one index table per
    dimension and builds its pair table (populations, gaps, couplings and
    their refusals) once, which the closed forms read in place; the exact
    route hands the pairs to f_exact, which builds its own.
    """
    s = q or QuadratureSettings()
    beta, lam = bath.beta, bath.lam
    dim = sys.dim
    l, l2 = _off_diagonal(dim)
    f = np.zeros((dim, dim))
    f_err = np.zeros((dim, dim))
    evaluations = 0
    if method is CorrectionMethod.EXACT_QUADRATURE:
        r = f_exact(sys, bath, sd, l, l2, s, conv)
        f[l, l2] = r.value
        f_err[l, l2] = r.component_errors
        evaluations = r.evaluations
        p = _populations(_effective_energies(sys, bath, conv, sd), beta)
    else:
        kernel, form = _CLOSED_FORMS[method]
        _refuse_zero_coupling(lam, form)
        t = _pair_table(sys, bath, conv, sd, l, l2)
        f[l, l2] = kernel(sys, bath, sd, t, conv)
        p = t.populations

    # m[l, l'] = p_l h_{l,l'} f_{l,l'}; its conjugate transpose is the second
    # term. rho_a stays complex for a real h too: a real rho_a sends the basis
    # change below down another BLAS path, which moves the state's last bits.
    m = p[:, None] * sys.h_elements * f
    rho_a = (-0.5 * (m + m.conj().T)).astype(complex)
    rho_a.flat[:: dim + 1] = p
    v = sys.a_eigenvectors
    rho = v @ rho_a @ v.conj().T
    state = DensityMatrix(rho, check_positive=False)

    lam2q = lam**2 * sd.reorganization_energy()
    diagnostics = {
        "f_error_estimates": f_err,
        "evaluations": evaluations,
        **regime_diagnostics(sys, lam2q, beta, sd),
    }
    return CorrectionResult(p, f, state, diagnostics)
