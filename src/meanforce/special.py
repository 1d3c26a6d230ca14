"""The Dawson function and the adaptive quadrature engine.

Everything here is deterministic: fixed nodes, fixed subdivision policy,
no randomness, so repeated runs produce bit-identical results. The Dawson
function is one sampled-exponential sum at every x, on scalars or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError

__all__ = [
    "QuadratureSettings",
    "QuadratureResult",
    "dawson",
    "integrate_finite",
]


_MAX_SUBDIVISIONS = 2000  # integrate_finite's budget of bisected panels


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for integrate_finite and the routes built on it; its budget
    of bisected panels is fixed (2000)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValidationError("rel_tol and abs_tol must be positive and finite")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an a-posteriori error estimate.

    value may be real, complex, or an array (componentwise integration of a
    vector-valued integrand); component_errors holds each component's own
    error estimate, shaped like value (a float for a scalar integrand;
    error_estimate when not given), and error_estimate is their max-norm.
    """

    value: object
    error_estimate: float
    evaluations: int
    component_errors: object = None

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise ValidationError("error_estimate must be nonnegative")
        if self.component_errors is None:
            object.__setattr__(self, "component_errors", self.error_estimate)
        elif not np.all(np.asarray(self.component_errors) >= 0):
            raise ValidationError("component_errors must be nonnegative")


# ----------------------------------------------------------------------------
# Dawson function
# ----------------------------------------------------------------------------

_RYB_H = 0.25
_RYB_MH = _RYB_H * np.arange(1.0, 41.0, 2.0)  # m*h for the odd m = 1..39
_RYB_C = 2.0 * _RYB_H * np.exp(-(_RYB_MH**2))  # 2h e^{-(mh)^2}


def dawson(x: float | np.ndarray) -> float | np.ndarray:
    """Dawson integral DF(x) = exp(-x^2) * integral_0^x exp(u^2) du, elementwise.

    One sampled-exponential sum at every x (G. B. Rybicki, Computers in
    Physics 3, 85 (1989)): with x0 = n0*h the lattice point nearest |x|
    (n0 even, h = 1/4) and x' = |x| - x0 an exact remainder,
        DF(|x|) = e^{-x'^2}/sqrt(pi) * sum_{m odd} e^{-(mh)^2}
                  * [e^t/(n0 + m) + e^{-t}/(n0 - m)],   t = 2x'mh.
    Each bracket is computed as 2h(x0 cosh t - mh sinh t)/(x0 - mh)/(x0 + mh),
    so nothing cancels near x = 0 and nothing overflows up to the largest
    double. Absolute error below 1e-15 for |x| <= 50, relative below 1e-14
    from |x| = 1e-300 up. Odd in x. An element's bits do not depend on the
    shape of the array it arrives in; a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError(f"dawson requires finite input, got {x[~np.isfinite(x)][0]}")
    ax = np.abs(x)
    r = np.remainder(ax, 2.0 * _RYB_H)
    xp = np.where(r > _RYB_H, r - 2.0 * _RYB_H, r)
    x0 = (ax - xp)[..., None]
    t = (2.0 * xp)[..., None] * _RYB_MH
    terms = _RYB_C * (x0 * np.cosh(t) - _RYB_MH * np.sinh(t)) / (x0 - _RYB_MH) / (x0 + _RYB_MH)
    val = np.copysign(np.sum(terms, axis=-1) * (np.exp(-xp * xp) / math.sqrt(math.pi)), x)
    return float(val) if val.ndim == 0 else val


# ----------------------------------------------------------------------------
# Gauss 7 / Kronrod 15 pair (nodes for [-1, 1]; QUADPACK constants)
# ----------------------------------------------------------------------------

_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full 15-point arrays, ascending nodes.
_XGK = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])
_GAUSS_IDX = np.arange(1, 14, 2)


def _eval_nodes(f, x: np.ndarray) -> np.ndarray:
    """Evaluate integrand on a node array.

    f must be vectorized: it maps an (n,) array to an array whose first axis
    has length n; trailing axes are integrated componentwise. A value that is
    not finite raises QuadratureError at once: no bisection can recover a sum
    that holds it.
    """
    y = np.asarray(f(x))
    if y.ndim == 0 or y.shape[0] != x.shape[0]:
        raise ValidationError(
            f"integrand returned shape {y.shape} for {x.shape[0]} nodes; "
            "it must map an array of nodes to one value per node"
        )
    if not np.isfinite(y).all():
        raise QuadratureError(
            f"integrand is not finite on the nodes from {x.min():.17g} to {x.max():.17g}"
        )
    return y


def _gk15(lo: np.ndarray, hi: np.ndarray, y: np.ndarray):
    """Gauss-Kronrod 7/15 sums of the panels [lo[i], hi[i]] from their node
    values, with the QUADPACK-style error estimate.

    y holds 15 rows per panel, panel after panel, and any trailing axes. It
    is read as one (panels, 15, components) stack, and each of the four
    weighted node sums is one stacked product over it, which gives every
    panel the bits np.tensordot gives it alone, whatever the stack's size.
    Returns value, resabs and the error vector, each (panels, components).
    """
    y = y.reshape(len(lo), 15, -1)
    h = 0.5 * (hi - lo)[:, None]
    resk = h * (_WGK @ y)
    resg = h * (_WG @ y)
    resabs = h * (_WGK @ np.abs(y))
    mean = resk / (hi - lo)[:, None]
    asc = h * (_WGK @ np.abs(y - mean[:, None, :]))
    raw = np.abs(resk - resg)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * raw / np.maximum(asc, 1e-300))
    scaled = np.where(asc > 0.0, asc * ratio**1.5, raw)
    return resk, resabs, np.maximum(scaled, 50.0 * np.finfo(float).eps * resabs)


def _gk15_panels(f, lo: np.ndarray, hi: np.ndarray):
    """GK15 sums of the panels [lo[i], hi[i]], all from one integrand call.

    The nodes go to f panel after panel, 15 each; a panel's nodes are the
    ones a call of its own would get, bit for bit. Returns the shape of one
    integrand value, then _gk15's value, resabs and error vector.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    y = _eval_nodes(f, (c[:, None] + h[:, None] * _XGK).ravel())
    return (y.shape[1:],) + _gk15(lo, hi, y)


_EDGE_LAYERS = np.array([1e-4, 1e-3, 1e-2, 1e-1])


def _initial_breakpoints(a: float, b: float) -> np.ndarray:
    layers = (b - a) * _EDGE_LAYERS
    return np.concatenate(([a], a + layers, b - layers[::-1], [b]))


def integrate_finite(
    f, a: float, b: float, settings: QuadratureSettings | None = None, breakpoints=None
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    The integrand is called with a 1-D array of nodes; it may return either a
    matching 1-D array or an array with extra trailing axes (integrated
    componentwise, error controlled in the max norm). Any other shape raises
    ValidationError. Integrands must be side-effect-free; a == b gives zeros.

    The initial panels run between breakpoints: the caller's, a strictly
    increasing array of finite panel edges from a to b, placed where it
    knows its integrand's scales; by default breakpoints at fractions
    1e-4..1e-1 of the span from each endpoint, so thin boundary layers are
    seen before the adaptive pass begins. Refinement then goes in rounds:
    sort the live panels by error, largest first (a stable sort), and bisect
    the shortest prefix whose errors sum to at least total error - tolerance,
    at least one panel and no more than the fixed budget of 2000 bisected
    panels (not rounds) has left. f is called once on the initial panels
    (9 by default, 135 nodes) and once per round on all of its halves (30
    nodes per bisected panel); evaluations counts 15 per panel. One stacked GK15 reduction gives every panel of a call its value
    and error, in bits that do not depend on the rest of the batch, so an
    integrand that is pointwise in its nodes gets every bit of one call per
    panel under the same rule; one whose rows depend on the whole batch, as
    f_exact's does through the shared stopping rule of its inner K
    quadrature, moves by rounding.

    Refinement stops at the tolerance, at the noise floor (100 eps of the
    integral of |f| over the initial panels), or once the error of the
    panels retired at minimal width (1e-14 of the span's scale) is ten times
    the rest or more; past the budget, QuadratureError carries the best
    estimate.
    """
    s = settings or QuadratureSettings()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration endpoints must be finite")
    if a > b:
        raise ValidationError(f"requires a <= b, got a={a}, b={b}")
    if a == b:  # zeros shaped like one integrand value, learnt at one evaluation
        zero = np.zeros_like(_eval_nodes(f, np.array([a]))[0])
        if zero.ndim == 0:
            return QuadratureResult(zero.item(), 0.0, 1)
        return QuadratureResult(zero, 0.0, 1, np.zeros(zero.shape))

    if breakpoints is None:
        edges = _initial_breakpoints(a, b)
    else:
        edges = np.asarray(breakpoints, dtype=float)
        if not (edges.ndim == 1 and edges.size >= 2 and np.isfinite(edges).all()
                and edges[0] == a and edges[-1] == b and np.all(edges[1:] > edges[:-1])):
            raise ValidationError(
                f"breakpoints must be finite and strictly increasing from a={a} to b={b}, "
                f"got {edges}"
            )
    lo, hi = edges[:-1], edges[1:]
    shape, value, resabs, err = _gk15_panels(f, lo, hi)
    total_resabs = float(np.max(np.sum(resabs, axis=0)))
    min_width = 1e-14 * max(abs(a), abs(b), b - a)
    n_bisections = 0
    noise_floor = 100.0 * np.finfo(float).eps
    while True:
        # Error is tracked per component (trailing axes) and reported in max norm.
        total = value.sum(axis=0).reshape(shape)[()]
        err_vec = err.sum(axis=0)
        total_err = float(err_vec.max())
        tol = max(s.abs_tol, s.rel_tol * float(np.abs(total).max()))
        if total_err <= tol:
            break
        if total_err <= noise_floor * total_resabs:
            break  # error dominated by rounding; further bisection is futile
        if n_bisections >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"{_MAX_SUBDIVISIONS} bisected panels exceeded "
                f"(error estimate {total_err:.3e}, tolerance {tol:.3e})",
                best_estimate=total,
                error_estimate=total_err,
            )
        # Panels at minimal width are retired: their error stays in the total
        # but cannot be reduced any further (endpoint singularities end up here).
        panel_err = err.max(axis=1)
        live = hi - lo > min_width
        dead_err = float(panel_err[~live].sum())
        if dead_err > 0 and total_err - dead_err <= 0.1 * dead_err:
            break  # irreducible error dominates (so once all are retired); report it honestly
        order = np.flatnonzero(live)
        order = order[np.argsort(-panel_err[order], kind="stable")]
        k = int(np.searchsorted(np.cumsum(panel_err[order]), total_err - tol)) + 1
        pick = order[:min(k, _MAX_SUBDIVISIONS - n_bisections)]
        mid = 0.5 * (lo[pick] + hi[pick])
        halves_lo = np.column_stack((lo[pick], mid)).ravel()
        halves_hi = np.column_stack((mid, hi[pick])).ravel()
        _, halves_value, _, halves_err = _gk15_panels(f, halves_lo, halves_hi)
        n_bisections += len(pick)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate((lo[keep], halves_lo))
        hi = np.concatenate((hi[keep], halves_hi))
        value = np.concatenate((value[keep], halves_value))
        err = np.concatenate((err[keep], halves_err))

    n_panels = len(edges) - 1 + 2 * n_bisections
    return QuadratureResult(total, total_err, 15 * n_panels, err_vec.reshape(shape)[()])
