"""Bath spectral densities and the integrals built on them.

A bath is a SpectralDensity: J(omega), the reorganization energy
Q = int J/omega and a cutoff frequency. From those the base class builds the
overlap kernel K(u) that exponentiates in the coherence corrections, and
G(tau), the double integral of the bath correlation function c_B(s) used by
the master-equation comparator, as omega-quadratures over [0, cutoff].
Families with a closed form or an unbounded support override them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOperationError, ValidationError
from .special import _EULER_GAMMA, QuadratureSettings, exp1, integrate_finite

__all__ = [
    "SpectralDensity",
    "LorentzDrude",
    "OhmicHardCutoff",
    "DiscreteModes",
    "Tabulated",
    "BathParams",
    "j_of_omega",
    "overlap_kernel",
    "g_double_integral",
]


class SpectralDensity:
    """A bath, defined by J(omega), its reorganization energy and a cutoff.

    A density defines __call__(w), J on an array of frequencies w >= 0;
    reorganization_energy(), Q = int_0^inf J(w)/w dw; and cutoff, the
    characteristic bath frequency (for a compactly supported J, the end of
    its support). kernel and g integrate J over [0, cutoff]; a density whose J
    extends past its cutoff must override both.

    Densities are immutable (every built-in one is a frozen dataclass): the
    master-equation comparator reuses G built for the same density object.
    """

    cutoff: float

    def __call__(self, w):
        raise NotImplementedError

    def reorganization_energy(self) -> float:
        raise NotImplementedError

    def kernel(self, beta: float, u: np.ndarray, settings: QuadratureSettings) -> np.ndarray:
        """K(u) for a batch of u values in [0, beta]; one quadrature per batch."""

        def integrand(w):
            return (self(w) / w**2)[:, None] * _kernel_factor(w, u, beta)

        res = integrate_finite(integrand, 0.0, self.cutoff, settings)
        return np.atleast_1d(np.asarray(res.value, dtype=float))

    def g(self, beta: float, tau: np.ndarray, settings: QuadratureSettings) -> np.ndarray:
        """G(tau) for a batch of tau >= 0."""

        def integrand(w):
            return (self(w) / w**2)[:, None] * _g_factor(w, tau, beta)

        res = integrate_finite(integrand, 0.0, self.cutoff, settings)
        return np.atleast_1d(np.asarray(res.value))


@dataclass(frozen=True)
class LorentzDrude(SpectralDensity):
    """J(w) = (2Q/pi) * w_c * w / (w_c^2 + w^2); Q is the reorganization energy."""

    Q: float
    omega_c: float

    def __post_init__(self):
        if not (self.Q > 0 and self.omega_c > 0):
            raise ValidationError("LorentzDrude requires Q > 0 and omega_c > 0")
        if not math.isfinite(self.omega_c * self.omega_c):
            # J(w) has omega_c^2 in its denominator.
            raise ValidationError(
                f"LorentzDrude requires a finite omega_c^2, got omega_c = {self.omega_c!r}"
            )

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        return (2.0 * self.Q / np.pi) * self.omega_c * w / (self.omega_c**2 + w**2)

    def reorganization_energy(self) -> float:
        return self.Q

    @property
    def cutoff(self) -> float:
        return self.omega_c

    def kernel(self, beta, u, settings):
        # w = omega_c t/(1 - t) maps the half-line onto [0, 1). J/w^2 decays
        # as w^-3, so the mapped integrand is smooth and falls to 0 at t = 1.
        def integrand(t):
            w = self.omega_c * t / (1.0 - t)
            weight = self(w) / w**2 * self.omega_c / (1.0 - t) ** 2
            return weight[:, None] * _kernel_factor(w, u, beta)

        res = integrate_finite(integrand, 0.0, 1.0, settings)
        return np.atleast_1d(np.asarray(res.value, dtype=float))

    def g(self, beta, tau, settings):
        c_pole, c_mats, nu, nu_star = _matsubara_coefficients(self, beta)
        g = c_pole * _mu_exp(np.array([self.omega_c]), tau)[0]
        g = g + _matsubara_sum(c_mats, nu, tau)
        # Euler-Maclaurin midpoint correction for the truncated Matsubara
        # tail: sum_{k>N} c_k mu(nu_k, tau) ~ (2Q w_c/pi) tau^2 R(nu* tau).
        # R's large-x form tau/nu* - 1/(2 nu*^2) is off by ~1/(2 nu*^2) for
        # nu* tau < 1, which breaks G(0) = 0 and small-tau monotonicity.
        x = nu_star * tau
        tail = np.zeros_like(tau)
        pos = x > 0.0
        tail[pos] = tau[pos] ** 2 * _tail_r(x[pos])
        return g + (2.0 * self.Q * self.omega_c / math.pi) * tail


@dataclass(frozen=True)
class OhmicHardCutoff(SpectralDensity):
    """J(w) = eta * w for w < omega_c, zero above."""

    eta: float
    omega_c: float

    def __post_init__(self):
        if not (self.eta > 0 and self.omega_c > 0):
            raise ValidationError("OhmicHardCutoff requires eta > 0 and omega_c > 0")

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        return np.where(w < self.omega_c, self.eta * w, 0.0)

    def reorganization_energy(self) -> float:
        return self.eta * self.omega_c

    @property
    def cutoff(self) -> float:
        return self.omega_c


@dataclass(frozen=True)
class DiscreteModes(SpectralDensity):
    """J(w) = sum_k g_k^2 delta(w - w_k); modes is a sequence of (g_k, w_k).

    The integrals are exact finite sums over the modes.
    """

    modes: tuple

    def __init__(self, modes):
        modes = tuple((float(g), float(w)) for g, w in modes)
        if not modes:
            raise ValidationError("DiscreteModes requires at least one mode")
        if any(w <= 0 for _, w in modes):
            raise ValidationError("all mode frequencies must be positive")
        object.__setattr__(self, "modes", modes)

    @property
    def couplings(self) -> np.ndarray:
        return np.array([g for g, _ in self.modes])

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([w for _, w in self.modes])

    def __call__(self, w):
        raise UnsupportedOperationError(
            "DiscreteModes has no pointwise J(omega); use the mode-sum operations"
        )

    def reorganization_energy(self) -> float:
        return float(np.sum(self.couplings**2 / self.frequencies))

    @property
    def cutoff(self) -> float:
        return float(np.max(self.frequencies))

    def kernel(self, beta, u, settings):
        g, w = self.couplings, self.frequencies
        return (g**2 / w**2) @ _kernel_factor(w, u, beta)

    def g(self, beta, tau, settings):
        g, w = self.couplings, self.frequencies
        return (g**2 / w**2) @ _g_factor(w, tau, beta)


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """J given on a strictly increasing frequency grid, linearly interpolated.

    J is zero below the first grid point and beyond the last. A grid starting
    at omega=0 must have J(0)=0, or int J/omega would diverge, and J must be
    positive somewhere, or Q = 0 and no coupling reaches a given lambda^2 Q.
    """

    omega: np.ndarray
    j: np.ndarray

    def __init__(self, omega, j):
        omega = np.asarray(omega, dtype=float)
        j = np.asarray(j, dtype=float)
        if omega.ndim != 1 or omega.shape != j.shape or omega.size < 2:
            raise ValidationError("Tabulated requires matching 1-D grids, >= 2 points")
        if not (np.all(np.diff(omega) > 0) and omega[0] >= 0):
            raise ValidationError("frequency grid must be strictly increasing and >= 0")
        if np.any(j < 0):
            raise ValidationError("J(omega) must be nonnegative")
        if omega[0] == 0 and j[0] != 0:
            raise ValidationError("J(0) must be 0 for a grid starting at omega=0")
        if not np.any(j > 0):
            raise ValidationError("J(omega) is zero on the whole grid, so Q = 0")
        omega.flags.writeable = False
        j.flags.writeable = False
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "j", j)

    @classmethod
    def from_file(cls, path) -> "Tabulated":
        """Load from a two-column text file (omega, J); '#' starts a comment."""
        try:
            data = np.loadtxt(path, comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"{path}: not a readable table of numbers: {exc}") from None
        if data.shape[1] < 2:
            raise ValidationError(f"{path}: expected two columns (omega, J)")
        return cls(data[:, 0], data[:, 1])

    def __call__(self, w):
        return np.interp(w, self.omega, self.j, left=0.0, right=0.0)

    def reorganization_energy(self) -> float:
        # Exact integral of the linear interpolant: on each cell J = c + d*w,
        # int J/w dw = c*ln(w1/w0) + d*(w1 - w0).
        w0, w1 = self.omega[:-1], self.omega[1:]
        j0, j1 = self.j[:-1], self.j[1:]
        d = (j1 - j0) / (w1 - w0)
        c = j0 - d * w0
        out = np.sum(d * (w1 - w0))
        nz = w0 > 0
        out += np.sum(c[nz] * np.log(w1[nz] / w0[nz]))
        return float(out)

    @property
    def cutoff(self) -> float:
        return float(self.omega[-1])


@dataclass(frozen=True)
class BathParams:
    """Inverse temperature and the dimensionless coupling scale."""

    beta: float
    lam: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValidationError("beta must be positive")
        if not self.lam >= 0:
            raise ValidationError("lambda must be nonnegative")


def j_of_omega(sd: SpectralDensity, omega):
    """Pointwise J(omega); accepts a scalar or an array of frequencies."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValidationError("j_of_omega requires omega >= 0")
    out = sd(w)
    return out if np.ndim(omega) else float(out)


# ----------------------------------------------------------------------------
# Overlap kernel K(u)
# ----------------------------------------------------------------------------

def _kernel_factor(w: np.ndarray, u: np.ndarray, beta: float) -> np.ndarray:
    """The dimensionless factor r(w; u) with K(u) = int J/w^2 * r.

    The u <-> beta-u symmetric form
    r = (1 + e^{-wb} - e^{-w(b-u)} - e^{-wu}) / (1 - e^{-wb})
    has a numerator that factors as (1 - e^{-wu})(1 - e^{-w(b-u)}), so expm1
    evaluates it to full relative precision for any w*u, with no branch
    switching and no cancellation; the symmetry then holds to rounding,
    which is what makes the detailed-balance identity on f hold tightly.
    r is bounded by tanh(w*beta/4).
    """
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float)
    y = w[:, None] * beta  # (m, 1)
    x = w[:, None] * u[None, :]  # (m, n)
    return -np.expm1(-x) * np.expm1(x - y) / np.expm1(-y)


def _overlap_kernel_batch(
    sd: SpectralDensity, beta: float, u: np.ndarray, settings: QuadratureSettings
) -> np.ndarray:
    """K(u) for a batch of u values in [0, beta]; one quadrature per batch."""
    return sd.kernel(beta, np.asarray(u, dtype=float), settings)


def overlap_kernel(
    sd: SpectralDensity, beta: float, u: float, settings: QuadratureSettings | None = None
) -> float:
    """K(u) = int_0^inf dw J(w)/w^2 * r(w; u, beta), for 0 <= u <= beta.

    Vanishes at u=0 and u=beta, symmetric about beta/2, nonnegative, and
    approaches u(1-u/beta)*Q in the high-temperature regime.
    """
    beta = float(beta)
    u = float(u)
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if not 0.0 <= u <= beta:
        raise ValidationError(f"u={u} outside [0, beta={beta}]")
    if u == 0.0 or u == beta:
        return 0.0
    s = settings or QuadratureSettings()
    return float(_overlap_kernel_batch(sd, beta, np.array([u]), s)[0])


# ----------------------------------------------------------------------------
# G(tau), the double integral of the bath correlation function c_B(s)
# ----------------------------------------------------------------------------

_MATSUBARA_N = 3000
# Beyond nu*tau = 40, e^{-nu tau} < 4.3e-18 lies below half an ulp of the
# nu*tau - 1 it is added to (expm1(-x) already rounds to -1 from x ~ 37.5),
# so mu(nu, tau) = tau/nu - 1/nu^2 in double precision.
_AFFINE_X = 40.0
# tau nodes per _mu_exp block. A block's smallest tau sets how many poles it
# keeps, so small blocks keep few full-width rows near tau = 0 and bound the
# temporaries at 3000 poles x 16 nodes (0.4 MB each).
_TAU_BLOCK = 16


def _one_minus_cos(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.sin(0.5 * x) ** 2


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.where(
        np.abs(x) < 1e-4,
        (x**3 / 6.0) * (1.0 - x**2 / 20.0),
        x - np.sin(x),
    )
    return out


def _coth(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.tanh(x)


def _g_factor(w: np.ndarray, tau: np.ndarray, beta: float) -> np.ndarray:
    """The factor with G(tau) = int J/w^2 * (coth(wb/2)(1 - cos wt) - i(wt - sin wt))."""
    wt = w[:, None] * tau[None, :]
    re = _coth(0.5 * beta * w)[:, None] * _one_minus_cos(wt)
    im = -_x_minus_sin(wt)
    return re + 1j * im


def _matsubara_coefficients(sd: LorentzDrude, beta: float):
    """Pole and Matsubara expansion coefficients for the Lorentz-Drude bath.

    When beta*omega_c sits on a Matsubara frequency the cot pole and the
    matching sum term cancel; rather than implementing that cancellation, beta
    is nudged by one part in 1e9 (c_B and G are smooth across the point).
    """
    wc, q = sd.omega_c, sd.Q
    ratio = beta * wc / (2.0 * math.pi)
    if abs(ratio - round(ratio)) < 1e-8 and round(ratio) >= 1:
        beta = beta * (1.0 + 1e-9)
    n = np.arange(1.0, _MATSUBARA_N + 1)
    nu = 2.0 * math.pi * n / beta
    c_pole = q * wc * (1.0 / math.tan(beta * wc / 2.0) - 1j)
    c_mats = (4.0 * q * wc / beta) * nu / (nu**2 - wc**2)
    nu_star = 2.0 * math.pi * (_MATSUBARA_N + 0.5) / beta
    return c_pole, c_mats, nu, nu_star


def _tail_r(x: np.ndarray) -> np.ndarray:
    """R(x) = int_x^inf (e^{-t} - 1 + t)/t^3 dt for x > 0.

    Closed form R = e^{-x}/(2x^2) - e^{-x}/(2x) + E1(x)/2 + 1/x - 1/(2x^2);
    below x = 0.35 the 1/x^2 pieces cancel catastrophically, so a power
    series around 0 (with the log from the 1/(2t) part of the integrand)
    takes over. Each form runs only on its own entries, and exp1 only at
    x <= _AFFINE_X: beyond it the three e^{-x} terms sum to less than half an
    ulp of 1/x, so the closed form rounds to 1/x - 1/(2x^2) bit for bit.
    """
    x = np.asarray(x, dtype=float)
    small = x < 0.35
    large = x > _AFFINE_X
    out = np.empty_like(x)
    xs = x[small]
    xs = np.where(xs > 0.0, xs, 1.0)
    r_series = 0.75 - 0.5 * _EULER_GAMMA - 0.5 * np.log(xs)
    fact = 2.0
    for m in range(3, 14):
        fact *= m
        term = xs ** (m - 2) / ((m - 2) * fact)
        r_series = r_series + (term if m % 2 else -term)
    out[small] = r_series
    mid = ~(small | large)
    if mid.any():
        xm = x[mid]
        ex = np.exp(-xm)
        out[mid] = (
            ex / (2.0 * xm**2) - ex / (2.0 * xm) + 0.5 * exp1(xm)
            + 1.0 / xm - 1.0 / (2.0 * xm**2)
        )
    xl = x[large]
    out[large] = 1.0 / xl - 1.0 / (2.0 * xl**2)
    return out


def _mu_exp(kappa: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """mu(kappa, tau) = (e^{-kt} - 1 + kt)/kappa^2, stable for small kt.

    The direct form is built in place on the whole block and the Taylor
    series overwrites only the entries with kt <= 1e-4, so each entry sees
    the same operations in the same order as if both forms were evaluated
    everywhere and selected after.
    """
    kappa = np.asarray(kappa, dtype=float)
    tau = np.asarray(tau, dtype=float)
    kt = kappa[:, None] * tau[None, :]
    k2 = kappa**2
    out = np.negative(kt)
    with np.errstate(invalid="ignore"):
        np.expm1(out, out=out)
        out += kt
        out /= np.where(k2 > 0, k2, 1.0)[:, None]
    small = kt <= 1e-4
    if small.any():
        ks = kt[small]
        t2 = np.broadcast_to(tau**2, kt.shape)[small]
        out[small] = t2 * (0.5 - ks / 6.0 + ks**2 / 24.0 - ks**3 / 120.0)
    return out


def _matsubara_sum(c: np.ndarray, nu: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_k c_k mu(nu_k, tau) for ascending nu_k and tau >= 0 in any order.

    The terms with nu_k tau > _AFFINE_X are affine in tau, so their sum is
    tau*S1(K) - S2(K) with suffix sums S1 of c/nu and S2 of c/nu^2 from the
    first affine row K on. _mu_exp sees only the rows below K, per block of
    sorted tau, with K taken at the block's smallest tau (all rows at tau = 0).
    """
    s1 = np.append(np.cumsum((c / nu)[::-1])[::-1], 0.0)
    s2 = np.append(np.cumsum((c / nu**2)[::-1])[::-1], 0.0)
    order = np.argsort(tau)
    ts = tau[order]
    with np.errstate(divide="ignore"):
        rows = np.searchsorted(nu, _AFFINE_X / ts, side="right")
    k = np.repeat(rows[::_TAU_BLOCK], _TAU_BLOCK)[: len(ts)]
    out = ts * s1[k] - s2[k]
    # rows falls as tau grows, so the blocks that need _mu_exp come first.
    for i in range(0, len(ts), _TAU_BLOCK):
        if k[i] == 0:
            break
        t = ts[i : i + _TAU_BLOCK]
        out[i : i + _TAU_BLOCK] += c[: k[i]] @ _mu_exp(nu[: k[i]], t)
    result = np.empty_like(out)
    result[order] = out
    return result


def _g_batch(sd: SpectralDensity, beta: float, tau: np.ndarray, settings: QuadratureSettings) -> np.ndarray:
    """G(tau) for a batch of tau >= 0."""
    return sd.g(beta, np.asarray(tau, dtype=float), settings)


def g_double_integral(
    sd: SpectralDensity, beta: float, tau: float, settings: QuadratureSettings | None = None
) -> complex:
    """G(tau) = int_0^tau (tau - s) c_B(s) ds, reduced to a single w-integral.

    G(0) = 0; Re G is nondecreasing; Im G -> -Q*tau + const for large tau.
    """
    beta = float(beta)
    tau = float(tau)
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if tau < 0:
        raise ValidationError("tau must be nonnegative")
    if tau == 0.0:
        return 0j
    s = settings or QuadratureSettings()
    return complex(_g_batch(sd, beta, np.array([tau]), s)[0])

