"""The Dawson function and the adaptive quadrature engine.

Everything here is deterministic: fixed nodes, fixed subdivision policy,
no randomness, so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import heapq
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


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and limits for integrate_finite and the routes built on it."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValidationError("max_subdivisions must be >= 1")


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
_RYB_M = np.arange(1.0, 41.0, 2.0)  # odd integers 1..39
_RYB_EXP = np.exp(-((_RYB_M * _RYB_H) ** 2))


def dawson(x: float) -> float:
    """Dawson integral DF(x) = exp(-x^2) * integral_0^x exp(u^2) du.

    Absolute error below 1e-12 for |x| <= 50. Odd in x.
    Three regimes: Maclaurin series for |x| < 1, Rybicki's sampled-exponential
    method for 1 <= |x| <= 6, asymptotic series in 1/(2x^2) beyond.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"dawson requires finite input, got {x!r}")
    ax = abs(x)
    if ax < 1.0:
        # DF(x) = sum_n (-2)^n x^(2n+1) / (2n+1)!!
        x2 = -2.0 * x * x
        term = x
        total = x
        n = 0
        while abs(term) > 1e-18 * abs(total) + 1e-300:
            n += 1
            term *= x2 / (2 * n + 1)
            total += term
        return total
    if ax <= 6.0:
        # Rybicki: sample exp(u^2) on a lattice of spacing h around x.
        n0 = 2 * int(round(0.5 * ax / _RYB_H))
        xp = ax - n0 * _RYB_H
        e1 = np.exp(2.0 * xp * _RYB_H * _RYB_M)
        s = float(
            np.sum(_RYB_EXP * (e1 / (n0 + _RYB_M) + 1.0 / ((n0 - _RYB_M) * e1)))
        )
        val = s * math.exp(-xp * xp) / math.sqrt(math.pi)
        return val if x > 0 else -val
    # Asymptotic: DF(x) ~ 1/(2x) * [1 + 1/(2x^2) + 3/(2x^2)^2 * ... ], i.e.
    # 1/(2x) + 1/(4x^3) + 3/(8x^5) + ...; stop when terms grow or underflow.
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 1.0
    total = 1.0
    n = 0
    while n < 60:
        n += 1
        new = term * (2 * n - 1) * inv2x2
        if abs(new) >= abs(term) or abs(new) < 1e-17:
            break
        term = new
        total += term
    return total / (2.0 * x)


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


class _Segment:
    __slots__ = ("a", "b", "value", "resabs", "err_vec", "err")

    def __init__(self, a, b, value, resabs, err_vec, err):
        self.a = a
        self.b = b
        self.value = value
        self.resabs = resabs
        self.err_vec = err_vec
        self.err = err


def _node_sum(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k w[k] y[k] over the node axis of y, as one matrix product.

    np.tensordot(w, y, axes=(0, 0)) makes this same product after axis
    bookkeeping that costs more than the product on a 15-node panel.
    """
    return np.dot(w[None, :], y.reshape(y.shape[0], -1)).reshape(y.shape[1:])


def _gk15(a: float, b: float, y: np.ndarray) -> _Segment:
    """One Gauss-Kronrod 7/15 panel from its 15 node values, with the
    QUADPACK-style error estimate.

    The four weighted node sums go through _node_sum, the same matrix
    product np.tensordot would make, so the panel's bits are tensordot's.
    """
    h = 0.5 * (b - a)
    resk = h * _node_sum(_WGK, y)
    resg = h * _node_sum(_WG, y)
    resabs = h * _node_sum(_WGK, np.abs(y))
    mean = resk / (b - a)
    asc = h * _node_sum(_WGK, np.abs(y - mean))
    raw = np.abs(resk - resg)
    asc = np.asarray(asc, dtype=float)
    raw = np.asarray(raw, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * raw / np.maximum(asc, 1e-300))
    scaled = np.where(asc > 0.0, asc * ratio**1.5, raw)
    err_vec = np.maximum(scaled, 50.0 * np.finfo(float).eps * np.asarray(resabs, dtype=float))
    return _Segment(a, b, resk, resabs, err_vec, float(np.max(err_vec)))


def _gk15_panels(f, edges: list[float]) -> list[_Segment]:
    """GK15 panels on [edges[i], edges[i+1]], all from one integrand call.

    The nodes go to f panel after panel, 15 each, and every panel's sums come
    from its own 15 rows of the result; a panel's nodes are the ones a call
    of its own would get, bit for bit.
    """
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    y = _eval_nodes(f, (c[:, None] + h[:, None] * _XGK).ravel())
    return [
        _gk15(a, b, y[15 * i:15 * i + 15])
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
    ]


_EDGE_LAYERS = (1e-4, 1e-3, 1e-2, 1e-1)


def _initial_breakpoints(a: float, b: float) -> list[float]:
    span = b - a
    pts = [a]
    pts += [a + span * t for t in _EDGE_LAYERS]
    pts += [b - span * t for t in reversed(_EDGE_LAYERS)]
    pts.append(b)
    return pts


def integrate_finite(f, a: float, b: float, settings: QuadratureSettings | None = None) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    The integrand is called with a 1-D array of nodes; it may return either a
    matching 1-D array or an array with extra trailing axes (integrated
    componentwise, error controlled in the max norm). Any other shape raises
    ValidationError. Integrands must be side-effect-free; a == b gives zeros.

    The initial subdivision places breakpoints at fractions 1e-4..1e-1 of the
    span from each endpoint, so thin boundary layers are seen before the
    adaptive pass begins. Worst-error-first bisection, deterministic order.

    f is called once per batch of panels: once on the 9 initial panels (135
    nodes), then once per bisection on both halves (30 nodes), so 1 +
    n_bisections calls in all; evaluations still counts 15 per panel. The
    nodes come panel after panel, 15 each, and every panel's GK15 sums are
    taken from its own 15 rows of the result. So for an integrand that is
    pointwise in its nodes (row i depends on x[i] alone) the panels, the
    counts and every bit of the result are those of one call per panel. An
    integrand whose rows depend on the whole batch, as f_exact's does through
    the shared stopping rule of its inner K quadrature, moves by rounding.
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

    segs = _gk15_panels(f, _initial_breakpoints(a, b))
    evals = 15 * len(segs)

    total = sum(seg.value for seg in segs)
    total_resabs = float(np.max(sum(np.asarray(seg.resabs, dtype=float) for seg in segs)))
    heap: list[tuple[float, int, _Segment]] = []
    counter = 0
    for seg in segs:
        heapq.heappush(heap, (-seg.err, counter, seg))
        counter += 1
    # Error is tracked per component (trailing axes) and reported in max norm.
    err_vec = sum(seg.err_vec for seg in segs)
    total_err = float(np.max(err_vec))

    min_width = 1e-14 * max(abs(a), abs(b), b - a)
    n_bisections = 0
    noise_floor = 100.0 * np.finfo(float).eps
    dead_err = 0.0  # segments at minimal width: counted, no longer refinable
    while True:
        tol = max(s.abs_tol, s.rel_tol * float(np.max(np.abs(total))))
        if total_err <= tol:
            break
        if total_err <= noise_floor * total_resabs:
            break  # error dominated by rounding; further bisection is futile
        if n_bisections >= s.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={s.max_subdivisions} exceeded "
                f"(error estimate {total_err:.3e}, tolerance {tol:.3e})",
                best_estimate=total,
                error_estimate=total_err,
            )
        # Retire segments at minimal width; their error stays in the total but
        # cannot be reduced any further (endpoint singularities end up here).
        while heap and (heap[0][2].b - heap[0][2].a) <= min_width:
            _, _, dead = heapq.heappop(heap)
            dead_err += dead.err
        if not heap:
            break
        if dead_err > 0 and total_err - dead_err <= 0.1 * dead_err:
            break  # irreducible error dominates; report it honestly
        _, _, seg = heapq.heappop(heap)
        left, right = _gk15_panels(f, [seg.a, 0.5 * (seg.a + seg.b), seg.b])
        evals += 30
        n_bisections += 1
        total = total - seg.value + left.value + right.value
        err_vec = err_vec - seg.err_vec + left.err_vec + right.err_vec
        total_err = float(np.max(err_vec))
        for child in (left, right):
            heapq.heappush(heap, (-child.err, counter, child))
            counter += 1

    value = total
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    errors = float(err_vec) if np.ndim(err_vec) == 0 else err_vec
    return QuadratureResult(value, float(total_err), evals, errors)

