"""Competing master-equation steady state, for cross-validation.

The strong-decoherence master equation predicts coherences

    rho_{l,l'} = h_{l,l'} [ i p_l I1 - i p_{l'} I2 ]
    I1 = int_0^inf e^{-lam^2 a_{l',l}^2 (G*(tau) - i tau Q)} e^{-i wbar tau} dtau
    I2 = int_0^inf e^{-lam^2 a_{l,l'}^2 (G(tau) + i tau Q)} e^{-i wbar tau} dtau

with wbar the renormalized gap and p_l the renormalized-gap populations.
I2 is the conjugate of the I1 form at -wbar, so all pairs and both signs are
the components of one vector-valued integrand over one shared cut tau*.
This route shares no code with the imaginary-time kernel integral, so
agreement between the two is a real consistency check; their analytic
relationship is deliberately left open and only quantified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError, ValidationError
from .linalg import DensityMatrix
from .special import QuadratureSettings, integrate_finite
from .spectral import BathParams, SpectralDensity, _g_batch
from .steady import RenormalizationConvention, SystemSpec, _effective_energies, _populations

__all__ = ["MEResult", "me_steady_state", "me_state"]

_GRID_MAX_NODES = 4097
_GRID_START_NODES = 65
_SPLINE_TOL = 1e-11  # table error at the probes, in units of Q
_OFFSETS = np.arange(8.0)[:, None]  # the Lagrange stencil's nodes, in node spacings
# prod_{m != k} (k - m) over the stencil offsets k, m = 0, ..., 7: the
# denominators of the 8-point Lagrange weights.
_LAGRANGE_DENOM = np.array([-5040.0, 720.0, -240.0, 144.0, -144.0, 240.0, -720.0, 5040.0])[:, None]
_TAIL_CUTOFF_EXPONENT = 40.0  # the transform stops where the weakest pair's s Re G reaches it
_GROWTH_FACTOR = 1.5
_GROWTH_LIMIT = 200
_STALL_RATIO = 1.001
_STALL_STRIKES = 3
_WINDOW_PERIODS = 8.0  # outer integral window length in units of 2 pi / |wbar|
# At least 135 integrand nodes per window: far beyond any bath the route can
# resolve, and a bound on the window array before it is built.
_MAX_WINDOWS = 100_000


@dataclass(frozen=True, eq=False)
class MEResult:
    """Master-equation coherences (A eigenbasis, zero diagonal) and populations.

    state is the two assembled in the original basis (PSD not enforced).
    truncation_tau is the shared cut tau* every transform is integrated to;
    per-pair quadrature errors and tail bounds live in diagnostics.
    Hermiticity of the coherence matrix is exact here because the lower
    triangle is the conjugate of the upper by the same algebra that makes the
    two integrals swap roles.
    """

    coherences: np.ndarray
    populations: np.ndarray
    state: DensityMatrix
    truncation_tau: float
    diagnostics: dict


class _GTable:
    """Re G and Im G on the grid tau = tau_max s^3, s uniform on [0, 1].

    G is smooth in s: where Re G ~ tau^2 ln tau near 0 (a J falling as 1/w),
    the log enters at s^6 ln s. The table is read by 8-point Lagrange
    interpolation in s, on the stencil centred on the cell where it fits and
    one-sided at both ends. A grid node reads back its own value exactly.
    """

    def __init__(self, grid: np.ndarray, y: np.ndarray):
        self.grid = grid
        self.y = y  # rows Re G and Im G at the grid nodes
        self._stencils = sliding_window_view(y, 8, axis=1)  # (2, n - 7, 8), no copy

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Both rows at t, shape (2, len(t))."""
        t = np.asarray(t, dtype=float)
        n = len(self.grid)
        u = np.cbrt(t / self.grid[-1]) * (n - 1)  # s in units of the node spacing
        i = np.rint(u)
        # the cube root may round a node off its integer u
        u = np.where(self.grid.take(i.astype(int), mode="clip") == t, i, u)
        j = np.clip(np.floor(u).astype(int) - 3, 0, n - 8)
        d = u - j - _OFFSETS  # (8, len(t)): u minus each stencil node
        # weight k is prod_{m != k} d_m / prod_{m != k} (k - m), by prefix
        # and suffix products, so a node (d_k = 0) gets weights exactly 1 and 0
        w = np.ones_like(d)
        np.cumprod(d[:-1], axis=0, out=w[1:])
        suffix = np.ones_like(d)
        np.cumprod(d[:0:-1], axis=0, out=suffix[-2::-1])
        w *= suffix / _LAGRANGE_DENOM
        return np.einsum("rnk,kn->rn", self._stencils[:, j], w)


def _finite_g(sd: SpectralDensity, beta: float, tau: np.ndarray, settings: QuadratureSettings):
    """_g_batch, or NumericsError where G is not finite (it overflows at huge tau)."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = _g_batch(sd, beta, tau, settings)
    if np.isfinite(g).all():
        return g
    raise NumericsError(f"G(tau) is not finite for tau up to {np.max(tau):.6g}")


def _find_tau_max(
    sd: SpectralDensity, beta: float, s_min: float, cutoff_exp: float,
    settings: QuadratureSettings,
) -> float:
    """Smallest grid end with s_min * Re G beyond the tail cutoff."""
    tau = max(beta, 4.0 / sd.cutoff)
    prev = float(np.real(_finite_g(sd, beta, np.array([tau]), settings)[0]))
    strikes = 0
    for _ in range(_GROWTH_LIMIT):
        if s_min * prev > cutoff_exp:
            return tau
        tau *= _GROWTH_FACTOR
        cur = float(np.real(_finite_g(sd, beta, np.array([tau]), settings)[0]))
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
) -> tuple[np.ndarray, _GTable, int, float]:
    """Cached G on a near-0-clustered grid, doubled until the table checks out.

    The grid is tau = tau_max s^3 on uniform s. The probes sit at the
    s-midpoints, which are the new nodes of the next doubling, so each G
    value is evaluated once and a failed check becomes the next grid.
    Returns the grid, the table of (Re G, Im G) on it, the node count and
    the table's error at the last probes: the largest |dRe G| + |dIm G|,
    divided by the reorganization energy Q.

    Raises NumericsError when G is not finite on the grid, or when the table
    still misses _SPLINE_TOL at _GRID_MAX_NODES nodes.
    """
    q_reorg = sd.reorganization_energy()
    n = _GRID_START_NODES
    grid = tau_max * np.linspace(0.0, 1.0, n) ** 3
    g = _finite_g(sd, beta, grid, settings)
    g[0] = 0.0  # G(0) = 0 exactly
    while True:
        re, im = np.real(g), np.imag(g)
        if np.any(np.diff(re) < -1e-10 * max(1.0, float(re[-1]))):
            raise NumericsError("Re G(tau) is not nondecreasing for this bath")
        table = _GTable(grid, np.stack([re, im]))
        # n - 1 is a power of two, so the even nodes of the doubled grid
        # reproduce this grid bit for bit and the odd ones are the probes.
        doubled = tau_max * np.linspace(0.0, 1.0, 2 * n - 1) ** 3
        mid = doubled[1::2]
        probe = _finite_g(sd, beta, mid, settings)
        at_mid = table(mid)
        err = float(
            np.max(np.abs(at_mid[0] - np.real(probe)) + np.abs(at_mid[1] - np.imag(probe)))
        ) / q_reorg
        if err <= _SPLINE_TOL:
            return grid, table, n, err
        if n >= _GRID_MAX_NODES:
            raise NumericsError(f"the G(tau) table is {err:.3g} of Q off at {n} nodes, above {_SPLINE_TOL:g}")
        g_doubled = np.empty(2 * n - 1, dtype=complex)
        g_doubled[::2], g_doubled[1::2] = g, probe
        grid, g, n = doubled, g_doubled, 2 * n - 1


# The last G table built, as (density, (beta, tau_max, settings), result).
# One entry suffices: the points of a lambda^2 Q sweep ask for the same key in
# an unbroken run, and a beta or omega_c sweep never repeats one. The density
# is matched by identity (Tabulated's own equality, as it holds arrays) and
# held here, so its id cannot be recycled.
_last_spline: tuple | None = None


def _g_splines(
    sd: SpectralDensity, beta: float, tau_max: float, settings: QuadratureSettings
) -> tuple[tuple[np.ndarray, _GTable, int, float], bool]:
    """_build_g_splines' result, reused when the last call had the same key.

    Returns the result and whether it was reused. Densities are immutable,
    so an equal key gives the same bits as a fresh build.
    """
    global _last_spline
    entry = _last_spline  # read once: a concurrent swap is then just a miss
    key = (beta, tau_max, settings)
    if entry is not None and entry[0] is sd and entry[1] == key:
        return entry[2], True
    built = _build_g_splines(sd, beta, tau_max, settings)
    for arr in (built[0], built[1].y):
        arr.flags.writeable = False
    _last_spline = (sd, key, built)
    return built, False


def me_steady_state(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    q: QuadratureSettings | None = None,
) -> MEResult:
    """Master-equation coherences for every coupling-eigenbasis pair.

    G is evaluated once on an adaptive grid, and the transforms read it from
    that table. The transforms of all pairs with h_{l,l'} != 0, at both
    signs of wbar, are one vector-valued integrand, so the table is read
    once per tau node.
    It runs out to one cut tau*, where the weakest pair's lam^2 a^2 Re G
    passes the tail cutoff, in windows short enough to track the fastest
    e^{-i wbar tau}. Per-pair diagnostics give the shared tau* and
    evaluation count, and the pair's own error estimate and tail bound.

    The table is reused across consecutive calls with the same density
    object, beta, grid end tau_max and quadrature settings, as along a
    lambda^2 Q sweep; diagnostics["table_reused"] reports it. The reused
    table is the one a fresh build would give, bit for bit.

    Raises NumericsError when lam^2 (a_l - a_l')^2 overflows.
    """
    s = q or QuadratureSettings()
    if not bath.lam > 0:
        raise ValidationError("the master-equation form needs lambda > 0")
    beta, lam = bath.beta, bath.lam
    energies = _effective_energies(sys, bath, RenormalizationConvention.NATURAL, sd)
    p = _populations(energies, beta)
    q_reorg = sd.reorganization_energy()

    # SystemSpec rejects a vanishing [H_S, A], so at least one pair is active.
    l, l2 = np.nonzero(np.triu(sys.h_elements != 0, 1))
    with np.errstate(over="ignore"):
        s_pair = lam**2 * sys.a_diffs[l2, l] ** 2
    if not np.isfinite(s_pair).all():
        raise NumericsError(
            f"coupling lambda^2 (a_l - a_l')^2 overflows at lambda = {lam:.6g}"
        )
    wbar = energies[l] - energies[l2]
    s_min = float(np.min(s_pair))
    tau_max = _find_tau_max(sd, beta, s_min, _TAIL_CUTOFF_EXPONENT, s)
    (grid, table, nodes, table_err), reused = _g_splines(sd, beta, tau_max, s)
    re_g = table.y[0]
    # shared cut: first grid point past the weakest pair's tail threshold
    idx = np.searchsorted(s_min * re_g, _TAIL_CUTOFF_EXPONENT)
    tau_star = float(grid[min(idx, len(grid) - 1)])

    # components: I1 of every pair, then conj(I2), the transform at -wbar
    s_c = np.concatenate([s_pair, s_pair])
    w_c = np.concatenate([wbar, -wbar])

    def f(t):
        re, im = table(t)
        phase = np.outer(im + q_reorg * t, s_c) - np.outer(t, w_c)
        return np.exp(-np.outer(re, s_c) + 1j * phase)

    window = tau_star
    w_max = float(np.max(np.abs(wbar)))
    if w_max != 0.0:
        window = min(window, _WINDOW_PERIODS * 2.0 * np.pi / w_max)
    n_windows = tau_star / window
    if not n_windows <= _MAX_WINDOWS:
        raise NumericsError(
            f"the transform out to tau* = {tau_star:.6g} needs {n_windows:.3g} windows, "
            f"more than {_MAX_WINDOWS}"
        )
    edges = np.linspace(0.0, tau_star, max(2, math.ceil(n_windows) + 1))
    total, err, evals = 0.0, 0.0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        r = integrate_finite(f, float(a), float(b), s)
        total = total + r.value
        err = err + r.component_errors
        evals += r.evaluations

    n = len(l)
    val = sys.h_elements[l, l2] * (1j * p[l] * total[:n] - 1j * p[l2] * np.conj(total[n:]))
    coh = np.zeros((sys.dim, sys.dim), dtype=complex)
    coh[l, l2] = val
    coh[l2, l] = np.conj(val)
    tail = np.exp(-s_pair * re_g[-1]) * tau_star
    per_pair = {
        (int(a), int(b)): {"tau_star": tau_star, "error_estimate": float(e),
                           "evaluations": evals, "tail_bound": float(t)}
        for a, b, e, t in zip(l, l2, err[:n] + err[n:], tail)
    }
    diagnostics = {
        "per_pair": per_pair,
        "tau_grid_nodes": nodes,
        "table_error": table_err,
        "tau_max": tau_max,
        "table_reused": reused,
    }
    v = sys.a_eigenvectors
    state = DensityMatrix(v @ (np.diag(p).astype(complex) + coh) @ v.conj().T, check_positive=False)
    return MEResult(
        coherences=coh, populations=p, state=state, truncation_tau=tau_star,
        diagnostics=diagnostics,
    )


def me_state(sys: SystemSpec, result: MEResult) -> DensityMatrix:
    """result.state, the full state in the original basis (PSD not enforced)."""
    return result.state
