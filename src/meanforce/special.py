"""Dawson function and adaptive quadrature engines.

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
    "exp1",
    "integrate_finite",
    "integrate_semi_infinite",
]

_EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and limits shared by both integration engines.

    tail_cutoff_exponent controls where semi-infinite integrals are truncated:
    at the point where the supplied magnitude envelope has fallen below
    exp(-tail_cutoff_exponent) times its observed peak.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    tail_cutoff_exponent: float = 40.0

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValidationError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValidationError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an a-posteriori error estimate.

    value may be real, complex, or an array (componentwise integration of a
    vector-valued integrand); error_estimate is the max-norm bound over
    components.
    """

    value: object
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise ValidationError("error_estimate must be nonnegative")


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


def exp1(x):
    """Exponential integral E1(x) = integral_x^inf e^{-t}/t dt, x > 0.

    Accepts a scalar or array. Alternating series below x=1.5, modified-Lentz
    continued fraction above; both branches are evaluated on masked copies so
    no invalid values leak through the np.where.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValidationError("exp1 requires finite positive input")
    small = arr <= 1.5
    xs = np.where(small, arr, 1.0)
    term = np.ones_like(xs)
    acc = np.zeros_like(xs)
    for k in range(1, 32):
        term = term * xs / k
        acc = acc + (term / k if k % 2 else -term / k)
    e_series = -_EULER_GAMMA - np.log(xs) + acc
    # E1(x) = e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...)))), x > 1.5
    xl = np.where(small, 2.0, arr)
    b = xl + 1.0
    c = np.full_like(xl, 1e308)
    d = 1.0 / b
    h = d.copy()
    for k in range(1, 48):
        a = -float(k * k)
        b = b + 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        h = h * c * d
    e_frac = np.exp(-xl) * h
    out = np.where(small, e_series, e_frac)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


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
    has length n; trailing axes are integrated componentwise.
    """
    y = np.asarray(f(x))
    if y.ndim == 0 or y.shape[0] != x.shape[0]:
        raise ValidationError(
            f"integrand returned shape {y.shape} for {x.shape[0]} nodes; "
            "it must map an array of nodes to one value per node"
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


def _gk15(f, a: float, b: float) -> _Segment:
    """One Gauss-Kronrod 7/15 panel with QUADPACK-style error estimate."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = _eval_nodes(f, c + h * _XGK)
    resk = h * np.tensordot(_WGK, y, axes=(0, 0))
    resg = h * np.tensordot(_WG, y, axes=(0, 0))
    yabs = np.abs(y)
    resabs = h * np.tensordot(_WGK, yabs, axes=(0, 0))
    mean = resk / (b - a)
    asc = h * np.tensordot(_WGK, np.abs(y - mean), axes=(0, 0))
    raw = np.abs(resk - resg)
    asc = np.asarray(asc, dtype=float)
    raw = np.asarray(raw, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * raw / np.maximum(asc, 1e-300))
    scaled = np.where(asc > 0.0, asc * ratio**1.5, raw)
    err_vec = np.maximum(scaled, 50.0 * np.finfo(float).eps * np.asarray(resabs, dtype=float))
    return _Segment(a, b, resk, resabs, err_vec, float(np.max(err_vec)))


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
    ValidationError. Integrands must be side-effect-free.

    The initial subdivision places breakpoints at fractions 1e-4..1e-1 of the
    span from each endpoint, so thin boundary layers are seen before the
    adaptive pass begins. Worst-error-first bisection, deterministic order.
    """
    s = settings or QuadratureSettings()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration endpoints must be finite")
    if a > b:
        raise ValidationError(f"requires a <= b, got a={a}, b={b}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)

    pts = _initial_breakpoints(a, b)
    segs: list[_Segment] = [_gk15(f, lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
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
        mid = 0.5 * (seg.a + seg.b)
        left = _gk15(f, seg.a, mid)
        right = _gk15(f, mid, seg.b)
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
    return QuadratureResult(value, float(total_err), evals)


def integrate_semi_infinite(
    f,
    a: float,
    decay_bound,
    settings: QuadratureSettings | None = None,
    omega_ref: float = 1.0,
) -> QuadratureResult:
    """Integrate f over [a, infinity) with an explicit tail envelope.

    decay_bound(w) must bound |f(w)| from above and decay monotonically beyond
    some point. The integral is truncated where the envelope falls below
    exp(-tail_cutoff_exponent) times its observed peak; a geometric-block bound
    on the discarded tail is added to error_estimate. The finite part is
    evaluated after the substitution w = a + omega_ref*t/(1-t), which maps the
    half-line to [0, 1) and flattens both algebraic and exponential tails.
    omega_ref should be the integrand's natural frequency scale.
    """
    s = settings or QuadratureSettings()
    a = float(a)
    omega_ref = float(omega_ref)
    if not math.isfinite(a):
        raise ValidationError("lower endpoint must be finite")
    if omega_ref <= 0:
        raise ValidationError("omega_ref must be positive")

    # Scan geometrically for the truncation point.
    cutoff_ratio = math.exp(-s.tail_cutoff_exponent)
    peak = 0.0
    t_cut = None
    w = a + omega_ref / 8.0
    for _ in range(260):
        env = float(decay_bound(w))
        if env < 0 or not math.isfinite(env):
            raise ValidationError(f"decay_bound must be finite and nonnegative, got {env} at {w}")
        peak = max(peak, env)
        if env <= cutoff_ratio * peak:
            t_cut = w
            break
        w *= 2.0
    if t_cut is None:
        raise QuadratureError(
            "decay envelope never reaches the tail cutoff; integral is divergent "
            "or decays too slowly to truncate"
        )

    # Bound the discarded tail by a sum over doubling blocks.
    tail_bound = 0.0
    wj = t_cut
    prev_block = math.inf
    stall = 0
    for _ in range(400):
        block = float(decay_bound(wj)) * wj  # block width equals wj (doubling)
        tail_bound += block
        if block < 1e-18 * (tail_bound + peak * omega_ref) + 1e-300:
            break
        if block >= 0.9 * prev_block:
            stall += 1
            if stall >= 12:
                raise QuadratureError(
                    "decay envelope tail decays too slowly for a convergent remainder bound"
                )
        else:
            stall = 0
        prev_block = block
        wj *= 2.0
    else:
        raise QuadratureError("decay envelope tail bound did not converge")

    t_max = (t_cut - a) / (t_cut - a + omega_ref)

    def mapped(t):
        t = np.asarray(t, dtype=float)
        omega = a + omega_ref * t / (1.0 - t)
        y = _eval_nodes(f, omega)
        jac = omega_ref / (1.0 - t) ** 2
        return y * jac.reshape(jac.shape + (1,) * (y.ndim - 1))

    res = integrate_finite(mapped, 0.0, t_max, s)
    return QuadratureResult(res.value, res.error_estimate + tail_bound, res.evaluations)
