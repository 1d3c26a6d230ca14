"""Bath spectral densities and the integrals built on them.

A bath is a SpectralDensity: J(omega), the reorganization energy
Q = int J/omega and a cutoff frequency. From those the base class builds the
overlap kernel K(u) that exponentiates in the coherence corrections, and
G(tau), the double integral of the bath correlation function c_B(s) used by
the master-equation comparator, as omega-quadratures over [0, cutoff].
Families with a closed form or an unbounded support override them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, UnsupportedOperationError, ValidationError
from .special import QuadratureSettings, integrate_finite

__all__ = [
    "SpectralDensity",
    "LorentzDrude",
    "OhmicHardCutoff",
    "DiscreteModes",
    "Tabulated",
    "BathParams",
    "overlap_kernel",
]


class SpectralDensity:
    """A bath, defined by J(omega), its reorganization energy and a cutoff.

    A density defines __call__(w), J on an array of frequencies w >= 0;
    reorganization_energy(), Q = int_0^inf J(w)/w dw; and cutoff, the
    characteristic bath frequency (for a compactly supported J, the end of
    its support). lower_edge is where J's support starts: 0 unless J is 0
    below some frequency, as for a table whose grid starts above 0. kernel
    and g integrate J over [0, cutoff]; a density whose J extends past its
    cutoff must override both.

    Densities are immutable (every built-in one is a frozen dataclass): the
    master-equation comparator reuses G built for the same density object.
    """

    cutoff: float
    lower_edge = 0.0

    def __call__(self, w):
        raise NotImplementedError

    def reorganization_energy(self) -> float:
        raise NotImplementedError

    def kernel(self, beta: float, u: np.ndarray, settings: QuadratureSettings) -> np.ndarray:
        """K(u) for a batch of u values in [0, beta]; one quadrature per batch."""

        def integrand(w):
            return _kernel_factor(w, u, beta, self(w) / w)

        res = integrate_finite(integrand, 0.0, self.cutoff, settings)
        return np.atleast_1d(np.asarray(res.value, dtype=float))

    def g(self, beta: float, tau: np.ndarray, settings: QuadratureSettings) -> np.ndarray:
        """G(tau) for a batch of tau >= 0."""

        def integrand(w):
            return (self(w) / w**2)[:, None] * _g_factor(w, tau, beta)

        res = integrate_finite(integrand, 0.0, self.cutoff, settings)
        return np.atleast_1d(np.asarray(res.value))


# Lorentz-Drude K(u) stays within 1e-10 relative of 30-digit mpmath up to
# omega_c beta = 10^10.2 (u/beta = 0.5, 0.25, 0.1, 0.01); it is refused past this.
_KERNEL_WCB_MAX = 1e10


@dataclass(frozen=True)
class LorentzDrude(SpectralDensity):
    """J(w) = (2Q/pi) * w_c * w / (w_c^2 + w^2); Q is the reorganization energy."""

    Q: float
    omega_c: float

    def __post_init__(self):
        if not (self.Q > 0 and self.omega_c > 0):
            raise ValidationError("LorentzDrude requires Q > 0 and omega_c > 0")
        if not math.isfinite(self.Q):
            raise ValidationError(f"LorentzDrude requires a finite Q, got Q = {self.Q!r}")
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
        # w = omega_c t/(1 - t) maps the half-line onto [0, 1), where J/w dw is
        # (2Q/pi) dt/((1 - t)^2 + t^2), free of omega_c^2 and w^2. The mapped
        # integrand falls to 0 at t = 1, but its mass reaches down to t ~
        # 1/(omega_c beta), hence the bound. r switches on at w ~ 1/u, 1 - t ~
        # omega_c u: the first panels run in half-decades of t down to
        # 0.1/(omega_c beta) and of 1 - t down to omega_c u_min/10 (u_min the
        # batch's closest approach to 0 or beta, at most to 1e-12; the first,
        # where u ~ beta/2 switches on at omega_c beta ~ 1, halved again) and 3
        # equal on [0.5, 0.9], so a batch ends in one integrand call.
        wcb = self.omega_c * beta
        if not wcb <= _KERNEL_WCB_MAX:
            raise NumericsError(f"Lorentz-Drude K(u) is refused at omega_c beta = "
                                f"{wcb:.3g}, past {_KERNEL_WCB_MAX:g}")
        wcu = self.omega_c * float(np.min(np.minimum(u, beta - u), initial=beta))
        n_low = min(max(math.ceil(math.log10(wcb)) + 1, 1), 15)
        n_high = min(max(math.ceil(-math.log10(wcu)) + 1, 1), 12) if wcu > 0 else 12
        low = 10.0 ** -np.arange(1.0, n_low + 0.25, 0.5)
        high = 10.0 ** -np.concatenate(([1.0, 1.25], np.arange(1.5, n_high + 0.25, 0.5)))
        breakpoints = np.concatenate(([0.0], low[::-1], np.linspace(0.5, 0.9, 4)[:-1], 1.0 - high, [1.0]))

        def integrand(t):  # below omega_c ~ 1e-305, w is subnormal: QuadratureError
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                weight = (2.0 * self.Q / np.pi) / ((1.0 - t) ** 2 + t**2)
                return _kernel_factor(self.omega_c * t / (1.0 - t), u, beta, weight)

        res = integrate_finite(integrand, 0.0, 1.0, settings, breakpoints=breakpoints)
        return np.atleast_1d(np.asarray(res.value, dtype=float))

    def g(self, beta, tau, settings):
        return _lorentz_drude_g(self.Q, self.omega_c, beta, tau)


@dataclass(frozen=True)
class OhmicHardCutoff(SpectralDensity):
    """J(w) = eta * w for w < omega_c, zero above."""

    eta: float
    omega_c: float

    def __post_init__(self):
        if not (self.eta > 0 and self.omega_c > 0):
            raise ValidationError("OhmicHardCutoff requires eta > 0 and omega_c > 0")
        if not (math.isfinite(self.eta) and math.isfinite(self.omega_c)):
            raise ValidationError(f"OhmicHardCutoff requires finite eta and omega_c, "
                                  f"got {self.eta!r}, {self.omega_c!r}")

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

    The integrals are exact finite sums over the modes. Every g_k and w_k must
    be finite, and every w_k positive.
    """

    modes: tuple

    def __init__(self, modes):
        modes = tuple((float(g), float(w)) for g, w in modes)
        if not modes:
            raise ValidationError("DiscreteModes requires at least one mode")
        if not all(math.isfinite(g) and math.isfinite(w) for g, w in modes):
            raise ValidationError("bath mode parameters must be finite")
        if any(w <= 0 for _, w in modes):
            raise ValidationError("all mode frequencies must be positive")
        object.__setattr__(self, "modes", modes)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

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
        return _kernel_factor(w, u, beta, g**2 / w).sum(axis=0)

    def g(self, beta, tau, settings):
        g, w = self.couplings, self.frequencies
        return (g**2 / w**2) @ _g_factor(w, tau, beta)


@dataclass(frozen=True, eq=False)
class Tabulated(SpectralDensity):
    """J given on a strictly increasing frequency grid, linearly interpolated.

    J is zero below the first grid point and beyond the last. A grid starting
    at omega=0 must have J(0)=0, or int J/omega would diverge, and J must be
    positive somewhere, or Q = 0 and no coupling reaches a given lambda^2 Q.
    Equality and hash are by identity: the grids are arrays.
    """

    omega: np.ndarray
    j: np.ndarray

    def __init__(self, omega, j):
        omega = np.asarray(omega, dtype=float)
        j = np.asarray(j, dtype=float)
        if omega.ndim != 1 or omega.shape != j.shape or omega.size < 2:
            raise ValidationError("Tabulated requires matching 1-D grids, >= 2 points")
        if not (np.isfinite(omega).all() and np.isfinite(j).all()):
            raise ValidationError("Tabulated requires finite omega and J values")
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
        object.__setattr__(self, "lower_edge", float(omega[0]))

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
        if not 0 < self.beta < math.inf:
            raise ValidationError(f"beta must be positive and finite, got {self.beta!r}")
        if not self.lam >= 0:
            raise ValidationError("lambda must be nonnegative")


# ----------------------------------------------------------------------------
# Overlap kernel K(u)
# ----------------------------------------------------------------------------

def _kernel_factor(w: np.ndarray, u: np.ndarray, beta: float, weight: np.ndarray) -> np.ndarray:
    """The K(u) integrand weight * r(w; u)/w on nodes w (rows) and u (columns),
    for weight = J(w)/w at the nodes times the measure: K(u) = int J/w^2 * r.

    r = (1 - e^{-wu})(1 - e^{-w(b-u)})/(1 - e^{-wb}), bounded by tanh(w b/4),
    has full relative precision at any w u through expm1, and is symmetric in
    u <-> b - u to rounding, which makes detailed balance on f hold tightly.
    The sign and 1/(1 - e^{-wb}) go into the per-w weight, and e^{-wu} - 1 is
    divided by w first, so nothing leaves the double range as w -> 0. In
    place, in two (w, u) arrays.
    """
    out, second = np.multiply.outer(-w, u), np.multiply.outer(w, u - beta)
    np.expm1(out, out=out)
    out /= w[:, None]
    out *= np.expm1(second, out=second)
    out *= (weight / -np.expm1(-w * beta))[:, None]
    return out


def _overlap_kernel_batch(
    sd: SpectralDensity, beta: float, u: np.ndarray, settings: QuadratureSettings
) -> np.ndarray:
    """K(u) for a batch of u values in [0, beta]; one quadrature per batch."""
    return sd.kernel(beta, np.asarray(u, dtype=float), settings)


def overlap_kernel(sd: SpectralDensity, beta: float, u: float) -> float:
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
    return float(_overlap_kernel_batch(sd, beta, np.array([u]), QuadratureSettings())[0])


# ----------------------------------------------------------------------------
# G(tau), the double integral of the bath correlation function c_B(s)
# ----------------------------------------------------------------------------

def _g_factor(w: np.ndarray, tau: np.ndarray, beta: float) -> np.ndarray:
    """The factor with G(tau) = int J/w^2 * (coth(wb/2)(1 - cos wt) - i(wt - sin wt))."""
    wt = w[:, None] * tau[None, :]
    re = (1.0 / np.tanh(0.5 * beta * w))[:, None] * (2.0 * np.sin(0.5 * wt) ** 2)
    x_minus_sin = np.where(np.abs(wt) < 1e-4, (wt**3 / 6.0) * (1.0 - wt**2 / 20.0), wt - np.sin(wt))
    return re + 1j * -x_minus_sin


_EULER_GAMMA = 0.5772156649015328606
# B_2k/(2k)! for k = 0, ..., 20 (DLMF 24.2), for the series of the Lorentz-Drude G and of cot.
_BERNOULLI_EVEN = np.array([
    1.0, 0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10, 1.3382536530684679e-11, -3.3896802963225827e-13,
    8.586062056277845e-15, -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24, -5.744790668872202e-26,
    1.455172475614865e-27, -3.6859949406653103e-29, 9.336734257095045e-31, -2.36502241570063e-32,
])
# Past k x = 40, e^{-k x} < 4.3e-18 is below half an ulp of the affine part it is added to.
_EXP_CUT = 40.0
_EXP_BLOCK = 64  # terms per block of the exponential sum, which bounds its memory for large a
_A_MAX = 1e4  # G's sum has 40 a terms: past a = beta w_c/2 pi = 1e4 it is refused
_C_MAX = 5.6e102  # G divides by c^3, c = 2 pi/beta; past c = 5.64e102 that overflows


def _digamma(z: float) -> float:
    """psi(z) for z > 0: recurrence up to z >= 16, then DLMF 5.11.2 to z^-12."""
    acc = 0.0
    while z < 16.0:
        acc -= 1.0 / z
        z += 1.0
    t = 1.0 / (z * z)
    tail = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (1 / 240 - t * (1 / 132 - t * 691 / 32760)))))
    return acc + math.log(z) - 0.5 / z - tail


def _cot_minus_inverse(y: float) -> float:
    """rho(y) = cot y - 1/y for |y| <= pi/2; up to |y| = 1 by y cot y = sum B_2k/(2k)! (-4y^2)^k."""
    if abs(y) > 1.0:
        return 1.0 / math.tan(y) - 1.0 / y
    acc = 0.0
    for b in _BERNOULLI_EVEN[:0:-1].tolist():
        acc = acc * -4.0 * y * y + b
    return -4.0 * y * acc


def _mu_exp(kappa: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """mu(kappa, tau) = (e^{-kt} - 1 + kt)/kappa^2, to rounding for every kt.

    The direct form is built in place on the whole block; the 25-term Taylor
    series overwrites the entries with kt <= 0.5 (all of them at kappa = 0),
    where the direct form would lose digits to cancellation. At kappa = 0
    every Horner step gives exactly 1, so mu is tau^2/2 with no series.
    """
    if not kappa.any():
        return np.repeat((tau**2 / 2.0)[None, :], len(kappa), axis=0)
    kt = kappa[:, None] * tau[None, :]
    out = np.negative(kt)
    np.expm1(out, out=out)
    out += kt
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= kappa[:, None]  # twice by kappa, not once by kappa^2, which underflows first
        out /= kappa[:, None]
    small = kt <= 0.5
    if small.any():
        ks = kt[small]
        series = np.ones_like(ks)  # 2 sum_{m<25} (-kt)^m/(m+2)!, by Horner
        for j in range(26, 2, -1):
            series = 1.0 - ks * series / j
        out[small] = np.broadcast_to(tau**2, kt.shape)[small] * series / 2.0
    return out


@functools.lru_cache(maxsize=4)
def _lorentz_drude_g_setup(wc: float, beta: float) -> tuple:
    """The tau-independent part of _lorentz_drude_g, built once per (w_c, beta)
    for the ME route's ladder and rule calls: series coefficients,
    exponential-sum weights (in read-only arrays) and matched constants."""
    c = 2.0 * math.pi / beta
    if not c <= _C_MAX:
        raise NumericsError(f"beta = {beta:.6g} is too small: (2 pi/beta)^3 in G overflows")
    a = wc / c
    if not a <= _A_MAX:
        raise NumericsError(f"beta w_c/2pi = {a:.6g} is past {_A_MAX:g}, where G would need {_EXP_CUT * a:.3g} terms")
    n = round(a)
    eps, s = a - n, min(2.0, 1.0 / a)
    rho = _cot_minus_inverse(math.pi * eps)

    # Power series in y = x/s: coefficient m is scaled by s^m.
    m = np.arange(41.0)
    even = m % 2 == 0
    sign = np.where(even, 1.0, -1.0)
    inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / m[1:])))
    e_ax = (a * s) ** m * inv_fact
    cosh_m1 = even * s * s * np.concatenate(([0.0, 0.0], e_ax[:-2] / (m[2:] * (m[2:] - 1.0))))  # (cosh ax - 1)/a^2
    sinh = ~even * s * np.concatenate(([0.0], e_ax[:-1] / m[1:]))  # sinh(ax)/a
    bern1 = np.zeros_like(m)  # B_j(1)/j!
    bern1[::2] = _BERNOULLI_EVEN
    bern1[1] = 0.5
    bern1 *= s**m
    w = -sign / np.maximum(m, 1.0)
    # sum_k e^{-kx}/(k + v) = -ln x - gamma - psi(1 + v) + sum_{j>=1} w_j B_j(1 + v)/j! x^j:
    # its parts even and odd in v = +-a (the even part less its v = 0 value) over a^2
    # and a, with the k = n pole taken out of the v = -a sum: psi(1 + a) less
    # psi(1 - a) without that pole is [n > 0]/a - pi rho.
    d_even = w * np.convolve(bern1, cosh_m1)[:41]
    u_even = w * bern1 + a * a * d_even
    u_odd = w * np.convolve(bern1, sinh)[:41]
    u_odd[0] = (math.pi * rho - (n > 0) / a) / (2.0 * a)
    u_even[0] = -_EULER_GAMMA - _digamma(1.0 + a) - a * u_odd[0]
    r = np.convolve(cosh_m1, u_even)[:41] + d_even + np.convolve(sinh, u_odd)[:41]
    n_pow = (n * s) ** m
    h = np.concatenate(([0.0], s * np.convolve((a * s) ** m, n_pow)[:40]))  # (a^m - n^m)/(a - n)
    if n:  # the pole taken out, and the rest of the k = n term
        r += sign * inv_fact * (n_pow * (n + 2.0 * a) / (2.0 * n * (n + a)) - 0.5 * h) / (a * a)
    r[:2] = 0.0
    # 2 F plus x^2 times the divided difference, sum_{m>=1} (-1)^m h_m x^m/(m+2)!
    poly = 2.0 * r
    poly[2:] += s * s * (sign * h * inv_fact / ((m + 1.0) * (m + 2.0)))[:-2]

    h1 = -math.pi * rho / (2.0 * a) + (0.5 / (a * a) + 0.5 / (a * (n + a)) if n else 0.0)
    k = np.arange(1.0, math.ceil(_EXP_CUT / s) + 1.0)
    k = k[k != n]
    b = 1.0 / (k * (k * k - a * a))
    h0 = float(b @ np.exp(-k * s) + s * h1 - np.sum(r) + np.sum(cosh_m1) * math.log(s))

    for arr in (m, cosh_m1, poly, k, b):
        arr.flags.writeable = False
    return c, a, n, eps, s, rho, m, cosh_m1, poly, h1, k, b, h0


def _lorentz_drude_g(q: float, wc: float, beta: float, tau: np.ndarray) -> np.ndarray:
    """G(tau) of Lorentz-Drude in closed form, with no truncated sum.

    With c = 2 pi/beta, a = w_c/c, x = c tau and mu_k = mu(k c, tau), the
    Matsubara expansion is Im G = -Q w_c mu(w_c, tau) and Re G = Q w_c cot(pi a)
    mu(w_c, tau) + (4 Q w_c/beta) sum_{k>=1} k c mu_k/(k^2 c^2 - w_c^2). For n
    the integer nearest a, the cot pole and the k = n term cancel; together
    they are Q w_c rho(pi (a - n)) mu(w_c, tau) + (2 Q w_c/beta) B, with
    rho(y) = cot y - 1/y and B = [mu(w_c) - mu_n]/(w_c - n c) + mu_n/(n c + w_c).
    The other terms sum to (4 Q w_c/beta) F(x)/c^3, where up to s = min(2, 1/a)
    a^2 F = -(cosh(ax) - 1) ln x + sum_{m=2}^{40} r_m x^m, from the Bernoulli
    expansion of the Lerch transcendents sum_k e^{-kx}/(k +- a) (DLMF 25.11.14,
    25.14), split into even and odd parts in a so that no r_m cancels like
    1/a^2 (its terms stay below about e^2 times its sum), and past s
    F = sum_{k <= 40/s} e^{-kx}/(k (k^2 - a^2)) - H0 + x H1, H1 in closed form
    and H0 matched to the series at s. B is a series below s too.
    """
    c, a, n, eps, s, rho, m, cosh_m1, poly, h1, k, b, h0 = _lorentz_drude_g_setup(wc, beta)
    x = c * tau
    small, big = x <= s, x > s
    mu_w = _mu_exp(np.array([wc]), tau)[0]
    half = np.empty_like(tau)  # B + 2 F/c^3
    xs, nu = x[small], n * c
    with np.errstate(divide="ignore"):
        log_x = np.log(np.where(xs > 0.0, xs, 1.0))
    powers = (xs / s)[:, None] ** m
    half[small] = _mu_exp(np.array([nu]), tau[small])[0] / (nu + wc) + (
        powers @ poly - 2.0 * (powers @ cosh_m1) * log_x) / c**3
    tb, xb = tau[big], x[big]
    exp_sum = np.zeros_like(xb)
    for i in range(0, len(k), _EXP_BLOCK):  # each block only where k x < 40 for its first k
        near = xb < _EXP_CUT / k[i]
        if not near.any():
            break
        exp_sum[near] += np.exp(-np.outer(xb[near], k[i : i + _EXP_BLOCK])) @ b[i : i + _EXP_BLOCK]
    if n == 0:
        pair = mu_w[big] / wc
    else:
        u, v, gap = wc * tb, nu * tb, abs(eps) * xb
        # (e^{-u} - e^{-v})/(u - v), with no overflow for either sign of u - v
        dd_exp = np.exp(-min(a, n) * xb) * np.expm1(-gap) / gap if eps else -np.exp(-v)
        pair = tb**3 * (dd_exp - u / (u + v) - (v + 2.0 * u) * np.expm1(-v) / (v * (u + v))) / (u * u)
    half[big] = pair + 2.0 * (exp_sum - h0 + xb * h1) / c**3
    return q * wc * (rho * mu_w + (2.0 / beta) * half) - 1j * (q * wc * mu_w)


def _g_batch(sd: SpectralDensity, beta: float, tau: np.ndarray, settings: QuadratureSettings) -> np.ndarray:
    """G(tau) = int_0^tau (tau - s) c_B(s) ds for a batch of tau >= 0, reduced
    to a single w-integral, or NumericsError where it is not finite (it
    overflows at huge tau). G(0) = 0; Re G is nondecreasing; Im G -> -Q*tau +
    const for large tau."""
    tau = np.asarray(tau, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        g = sd.g(beta, tau, settings)
    if not np.isfinite(g).all():
        raise NumericsError(f"G(tau) is not finite for tau up to {np.max(tau):.6g}")
    return g

