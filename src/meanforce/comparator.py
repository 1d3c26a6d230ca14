"""Competing master-equation steady state, for cross-validation.

The strong-decoherence master equation predicts coherences

    rho_{l,l'} = h_{l,l'} [ i p_l I1 - i p_{l'} I2 ]
    I1 = int_0^inf e^{-lam^2 a_{l',l}^2 (G*(tau) - i tau Q)} e^{-i wbar tau} dtau
    I2 = int_0^inf e^{-lam^2 a_{l,l'}^2 (G(tau) + i tau Q)} e^{-i wbar tau} dtau

with wbar the renormalized gap and p_l the renormalized-gap populations.
This route shares no code with the imaginary-time kernel integral, so
agreement between the two is a real consistency check; their analytic
relationship is deliberately left open and only quantified numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .linalg import DensityMatrix
from .special import QuadratureSettings, integrate_finite
from .spectral import BathParams, SpectralDensity, _g_batch
from .steady import RenormalizationConvention, SystemSpec, _effective_energies, _populations

__all__ = ["MEResult", "me_steady_state", "me_state"]

_GRID_MAX_NODES = 4097
_GRID_START_NODES = 65
_SPLINE_TOL = 1e-8
_GROWTH_FACTOR = 1.5
_GROWTH_LIMIT = 200
_STALL_RATIO = 1.001
_STALL_STRIKES = 3
_WINDOW_PERIODS = 8.0  # outer integral window length in units of 2 pi / |wbar|


@dataclass(frozen=True, eq=False)
class MEResult:
    """Master-equation coherences (A eigenbasis, zero diagonal) and populations.

    truncation_tau is the longest tau actually integrated to; per-pair cuts
    and quadrature errors live in diagnostics. Hermiticity of the coherence
    matrix is exact here because the lower triangle is the conjugate of the
    upper by the same algebra that makes the two integrals swap roles.
    """

    coherences: np.ndarray
    populations: np.ndarray
    truncation_tau: float
    diagnostics: dict


class _CubicSpline:
    """Natural cubic spline through (x_j, y_j), numpy-only."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = len(x)
        h = np.diff(x)
        # Thomas algorithm for the natural-spline moment system.
        m = np.zeros(n)
        if n > 2:
            diag = 2.0 * (h[:-1] + h[1:])
            rhs = 6.0 * np.diff(np.diff(y) / h)
            upper = h[1:-1].copy()
            lower = h[1:-1].copy()
            for i in range(1, n - 2):
                w = lower[i - 1] / diag[i - 1]
                diag[i] -= w * upper[i - 1]
                rhs[i] -= w * rhs[i - 1]
            sol = np.zeros(n - 2)
            sol[-1] = rhs[-1] / diag[-1]
            for i in range(n - 4, -1, -1):
                sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
            m[1:-1] = sol
        self.x = x
        self.y = y
        self.h = h
        self.m = m

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(self.x, t) - 1, 0, len(self.x) - 2)
        h = self.h[j]
        d = t - self.x[j]
        e = self.x[j + 1] - t
        m0, m1 = self.m[j], self.m[j + 1]
        return (
            m0 * e**3 / (6.0 * h)
            + m1 * d**3 / (6.0 * h)
            + (self.y[j] / h - m0 * h / 6.0) * e
            + (self.y[j + 1] / h - m1 * h / 6.0) * d
        )


def _find_tau_max(
    sd: SpectralDensity, beta: float, s_min: float, cutoff_exp: float,
    settings: QuadratureSettings,
) -> float:
    """Smallest grid end with s_min * Re G beyond the tail cutoff."""
    tau = max(beta, 4.0 / sd.cutoff)
    prev = float(np.real(_g_batch(sd, beta, np.array([tau]), settings)[0]))
    strikes = 0
    for _ in range(_GROWTH_LIMIT):
        if s_min * prev > cutoff_exp:
            return tau
        tau *= _GROWTH_FACTOR
        cur = float(np.real(_g_batch(sd, beta, np.array([tau]), settings)[0]))
        if cur < prev * _STALL_RATIO:
            strikes += 1
            if strikes >= _STALL_STRIKES:
                raise NumericsError(
                    "Re G(tau) stopped growing before the integrand decayed; "
                    "the steady-state integral does not converge for this bath"
                )
        else:
            strikes = 0
        prev = cur
    raise NumericsError(
        "could not reach the integrand tail within the growth budget"
    )


def _build_g_splines(
    sd: SpectralDensity, beta: float, tau_max: float, settings: QuadratureSettings
) -> tuple[_CubicSpline, _CubicSpline, int, float]:
    """Cached G on a near-0-clustered grid, doubled until the spline checks out.

    The grid is tau = tau_max s^2 on uniform s. The probes sit at the
    s-midpoints, which are the new nodes of the next doubling, so each G
    value is evaluated once and a failed check becomes the next grid.
    """
    n = _GRID_START_NODES
    grid = tau_max * np.linspace(0.0, 1.0, n) ** 2
    g = _g_batch(sd, beta, grid, settings)
    g[0] = 0.0  # G(0) = 0 exactly
    while True:
        re, im = np.real(g), np.imag(g)
        if np.any(np.diff(re) < -1e-10 * max(1.0, float(re[-1]))):
            raise NumericsError("Re G(tau) is not nondecreasing for this bath")
        sp_re, sp_im = _CubicSpline(grid, re), _CubicSpline(grid, im)
        # n - 1 is a power of two, so the even nodes of the doubled grid
        # reproduce this grid bit for bit and the odd ones are the probes.
        doubled = tau_max * np.linspace(0.0, 1.0, 2 * n - 1) ** 2
        mid = doubled[1::2]
        probe = _g_batch(sd, beta, mid, settings)
        scale = max(1.0, float(np.max(np.abs(g))))
        err = float(
            np.max(np.abs(sp_re(mid) - np.real(probe)) + np.abs(sp_im(mid) - np.imag(probe)))
        ) / scale
        if err <= _SPLINE_TOL or n >= _GRID_MAX_NODES:
            return sp_re, sp_im, n, err
        g_doubled = np.empty(2 * n - 1, dtype=complex)
        g_doubled[::2], g_doubled[1::2] = g, probe
        grid, g, n = doubled, g_doubled, 2 * n - 1


def me_steady_state(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    q: QuadratureSettings | None = None,
) -> MEResult:
    """Master-equation coherences for every coupling-eigenbasis pair.

    G is evaluated once on an adaptive grid and splined; each pair then
    integrates the splined phase out to where lam^2 a^2 Re G passes the tail
    cutoff, in windows short enough to track the e^{-i wbar tau} oscillation.
    """
    s = q or QuadratureSettings()
    if not bath.lam > 0:
        raise ValidationError("the master-equation form needs lambda > 0")
    beta, lam = bath.beta, bath.lam
    dim = sys.dim
    energies = _effective_energies(sys, bath, RenormalizationConvention.NATURAL, sd)
    p = _populations(energies, beta)
    q_reorg = sd.reorganization_energy()

    pairs = [(l, l2) for l in range(dim) for l2 in range(dim) if l < l2]
    s_values = {
        (l, l2): lam**2 * float(sys.a_diffs[l2, l]) ** 2 for l, l2 in pairs
    }
    active = [pr for pr in pairs if sys.h_elements[pr] != 0]
    coh = np.zeros((dim, dim), dtype=complex)
    diagnostics: dict = {"per_pair": {}}
    tau_used = 0.0

    if active:
        s_min = min(s_values[pr] for pr in active)
        tau_max = _find_tau_max(sd, beta, s_min, s.tail_cutoff_exponent, s)
        sp_re, sp_im, nodes, sp_err = _build_g_splines(sd, beta, tau_max, s)
        diagnostics.update(
            {"tau_grid_nodes": nodes, "spline_error": sp_err, "tau_max": tau_max}
        )

        for l, l2 in active:
            s_pair = s_values[(l, l2)]
            wbar = float(energies[l] - energies[l2])
            # per-pair cut: first grid point past the tail threshold
            idx = np.searchsorted(s_pair * sp_re.y, s.tail_cutoff_exponent)
            tau_star = float(sp_re.x[min(idx, len(sp_re.x) - 1)])
            tau_used = max(tau_used, tau_star)

            def transform(w: float) -> tuple[complex, float, int]:
                def f(t):
                    t = np.asarray(t, dtype=float)
                    phase = s_pair * (sp_im(t) + q_reorg * t) - w * t
                    return np.exp(-s_pair * sp_re(t) + 1j * phase)

                window = tau_star
                if w != 0.0:
                    window = min(window, _WINDOW_PERIODS * 2.0 * np.pi / abs(w))
                edges = np.linspace(0.0, tau_star, max(2, int(np.ceil(tau_star / window)) + 1))
                total, err, evals = 0.0 + 0.0j, 0.0, 0
                for a, b in zip(edges[:-1], edges[1:]):
                    r = integrate_finite(f, float(a), float(b), s)
                    total += r.value
                    err += r.error_estimate
                    evals += r.evaluations
                return total, err, evals

            i1, e1, n1 = transform(wbar)
            i2m, e2, n2 = transform(-wbar)
            i2 = np.conj(i2m)
            val = sys.h_elements[l, l2] * (1j * p[l] * i1 - 1j * p[l2] * i2)
            coh[l, l2] = val
            coh[l2, l] = np.conj(val)
            diagnostics["per_pair"][(l, l2)] = {
                "tau_star": tau_star,
                "error_estimate": e1 + e2,
                "evaluations": n1 + n2,
                "tail_bound": float(np.exp(-s_pair * sp_re.y[-1])) * tau_star,
            }

    return MEResult(
        coherences=coh, populations=p, truncation_tau=tau_used, diagnostics=diagnostics
    )


def me_state(sys: SystemSpec, result: MEResult) -> DensityMatrix:
    """Assemble the full state in the original basis (PSD not enforced)."""
    rho_a = np.diag(result.populations).astype(complex) + result.coherences
    v = sys.a_eigenvectors
    return DensityMatrix(v @ rho_a @ v.conj().T, check_positive=False)
