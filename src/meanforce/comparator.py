"""Competing master-equation steady state, for cross-validation.

The strong-decoherence master equation predicts coherences

    rho_{l,l'} = h_{l,l'} [ i p_l I1 - i p_{l'} I2 ]
    I1 = int_0^inf e^{-lam^2 a_{l',l}^2 (G*(tau) - i tau Q)} e^{-i wbar tau} dtau
    I2 = int_0^inf e^{-lam^2 a_{l,l'}^2 (G(tau) + i tau Q)} e^{-i wbar tau} dtau

with wbar the renormalized gap and p_l the renormalized-gap populations.
I2 is the conjugate of the I1 form at -wbar, so all pairs and both signs are
the components of one vector-valued integrand over one shared cut tau*, a
rung of a fixed 1.5x ladder in tau. The integral to tau* is one nested
order-8 Gregory rule on tau = tau* s^3, s uniform on [0, 1], from 257 nodes
doubling up to a cap of 16385, with G evaluated at the rule's own nodes and
never interpolated. Its error estimate is |I_N - I_(N+1)/2| on N nodes.
This route shares no code with the imaginary-time kernel integral, so
agreement between the two is a real consistency check; their analytic
relationship is deliberately left open and only quantified numerically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .linalg import DensityMatrix
from .special import QuadratureSettings
from .spectral import BathParams, SpectralDensity, _g_batch
from .steady import RenormalizationConvention, SystemSpec, _pair_table

__all__ = ["MEResult", "me_steady_state", "me_state"]

_TAIL_CUTOFF_EXPONENT = 40.0  # the transform stops where the weakest pair's s Re G reaches it
_GROWTH_FACTOR = 1.5
_GROWTH_LIMIT = 200
# Rungs below tau0 in the cut's ladder, down to tau0 / 1.5^36. On seven
# Lorentz-Drude baths (beta 0.1 to 10, w_c 0.05 to 10) the deepest cut the
# node cap still integrates is rung -20 to -28; a cut below the ladder only
# moves up to its lowest rung and costs nodes. A rung adds well under 1 us
# to the ladder's G call (about 110 us at 25 to 49 rungs).
_LADDER_RUNGS = 36
_RUNG_FACTORS = _GROWTH_FACTOR ** np.arange(-_LADDER_RUNGS, 1.0)  # rung k below tau0 is tau0 1.5^-k
_STALL_RATIO = 1.001
_STALL_STRIKES = 3
_FIRST_LEVEL_NODES = 257  # the rule's first level, compared with the level below it
_RULE_MAX_NODES = 16385  # the transform's node cap, 2^14 + 1
# Order-8 Gregory end corrections: node k from either end of a uniform grid
# weighs 1 + _GREGORY_ENDS[k] node spacings and every interior node 1, which
# integrates polynomials of degree 7 exactly on 16 or more nodes.
_GREGORY_ENDS = np.array(
    [-2558783.0, 1908311.0, -2696283.0, 2899075.0, -2134045.0, 1012293.0, -278921.0, 33953.0]
) / 3628800.0


@dataclass(frozen=True, eq=False)
class MEResult:
    """Master-equation coherences (A eigenbasis, zero diagonal) and populations.

    state is the two assembled in the original basis (PSD not enforced; the
    state reports it). diagnostics holds the shared cut tau* every transform
    is integrated to, whether G at the rule's nodes came from the memo of the
    last cut (g_reused), and per pair the quadrature error, the tail bound and
    the rule's level N (evaluations: the integrand is evaluated on its N
    nodes, each once).
    Hermiticity of the coherence matrix is exact here because the lower
    triangle is the conjugate of the upper by the same algebra that makes the
    two integrals swap roles.
    """

    coherences: np.ndarray
    populations: np.ndarray
    state: DensityMatrix
    diagnostics: dict


def _refuse_decreasing(g: np.ndarray) -> None:
    """NumericsError where Re G falls along g (ascending tau) by more than
    1e-10 of max(1, Re G at the last tau)."""
    re = g.real
    if (re[1:] - re[:-1] < -1e-10 * max(1.0, float(re[-1]))).any():
        raise NumericsError("Re G(tau) is not nondecreasing for this bath")


def _find_tau_max(
    sd: SpectralDensity, beta: float, s_min: float, settings: QuadratureSettings,
    ladder: np.ndarray | None = None,
) -> tuple[float, complex, np.ndarray]:
    """The cut tau*, G(tau*) and G at the ladder's rungs: tau* is the smallest
    rung of the ladder tau0 1.5^k, tau0 = max(beta, 4/w_c), where s_min Re G
    reaches the tail cutoff.

    ladder is G at the rungs from tau0 / 1.5^_LADDER_RUNGS to tau0 where it
    is held for this density, beta and settings; otherwise one G call
    evaluates it. That call is refused (NumericsError) where Re G decreases
    across the rungs: the tail bound at tau* needs Re G not to fall beyond
    tau*. Where tau0 itself falls short, the ladder climbs one rung per G
    call, and NumericsError is raised when Re G stalls or the growth budget
    runs out.
    """
    tau = max(beta, 4.0 / sd.cutoff)
    rungs = tau * _RUNG_FACTORS
    if ladder is None:
        ladder = _g_batch(sd, beta, rungs, settings)
        _refuse_decreasing(ladder)
        ladder.flags.writeable = False
    passed = s_min * ladder.real >= _TAIL_CUTOFF_EXPONENT
    if passed[-1]:
        k = int(np.argmax(passed))
        return float(rungs[k]), complex(ladder[k]), ladder
    prev = float(np.real(ladder[-1]))
    strikes = 0
    for _ in range(_GROWTH_LIMIT):
        tau *= _GROWTH_FACTOR
        g_tau = complex(_g_batch(sd, beta, np.array([tau]), settings)[0])
        if s_min * g_tau.real >= _TAIL_CUTOFF_EXPONENT:
            return tau, g_tau, ladder
        if g_tau.real < prev * _STALL_RATIO:
            strikes += 1
            if strikes >= _STALL_STRIKES:
                raise NumericsError(
                    "Re G(tau) stopped growing before the integrand decayed; "
                    "the steady-state integral does not converge for this bath"
                )
        else:
            strikes = 0
        prev = g_tau.real
    raise NumericsError(
        "could not reach the integrand tail within the growth budget"
    )


# G for the last density, beta and settings, as (density, (beta, settings),
# ladder, tau*, g): ladder is G at the cut's rungs, g is G at the rule's
# nodes for the last cut tau*, on the finest level read so far. One entry
# suffices: a lambda^2 Q sweep keeps the key and its points that share a
# rung come in an unbroken run; a beta or omega_c sweep never repeats a key.
# The density is matched by identity (Tabulated's own equality, as it holds
# arrays) and held here, so its id cannot be recycled.
_last_g: tuple | None = None


@functools.lru_cache(maxsize=8)
def _s_nodes(n: int) -> np.ndarray:
    """The rule's n-node level, linspace(0, 1, n), made once and read-only."""
    s = np.linspace(0.0, 1.0, n)
    s.flags.writeable = False
    return s


def _level(held: np.ndarray, n: int, evaluate) -> np.ndarray:
    """Values on the n-node level of the rule's nested uniform s-grid on [0, 1]
    from the values held on another level (2^k + 1 nodes each): a finer held
    level is subsampled, a coarser one is completed by evaluate(s) at its
    missing nodes s only.

    Every step-th node of the finer level is a node of the coarser one, bit
    for bit, so a held value stands for a fresh one.
    """
    if len(held) >= n:
        return held[:: (len(held) - 1) // (n - 1)]
    step = (n - 1) // (len(held) - 1)
    new = np.ones(n, dtype=bool)
    new[::step] = False
    out = np.empty((n,) + held.shape[1:], dtype=held.dtype)
    out[::step] = held
    out[new] = evaluate(_s_nodes(n)[new])
    return out


def _gregory(y: np.ndarray) -> np.ndarray:
    """Order-8 Gregory sum over axis 0 of y, in units of the node spacing."""
    return y.sum(axis=0) + _GREGORY_ENDS @ y[:8] + _GREGORY_ENDS @ y[:-9:-1]


def _transform(
    f, g: np.ndarray, g_new, tau_star: float, settings: QuadratureSettings
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """int_0^tau* f(tau, G(tau)) dtau on tau = tau* s^3, by the nested Gregory rule in s.

    g is G on one level of the nested s-grid and g_new(s) evaluates G at
    tau* s^3. The rule reads G on its level from g, evaluating the missing
    nodes only, and refuses it (NumericsError) where Re G decreases. f is
    evaluated on the first _FIRST_LEVEL_NODES nodes at once, whose sum is
    compared with the level below, and then at each doubling's new midpoints
    only. The rule stops at the first level N whose sum is within
    max(abs_tol, rel_tol * max|I_N|) of the level below in every component.
    Returns the integral on N nodes, each component's |I_N - I_(N+1)/2|, N
    and G on the finest level read. Raises NumericsError when the rule misses
    the tolerance at _RULE_MAX_NODES nodes; the error's g is G on the finest
    level read, as a return would give it.
    """

    def integrand(s_nodes, g_nodes):
        return f(tau_star * s_nodes**3, g_nodes) * (3.0 * tau_star * s_nodes**2)[:, None]

    n = _FIRST_LEVEL_NODES
    g_n = _level(g, n, g_new)
    _refuse_decreasing(g_n)
    y = integrand(_s_nodes(n), g_n)
    total = _gregory(y[::2]) / ((n - 1) // 2)
    while True:
        g = max(g, g_n, key=len)
        value = _gregory(y) / (n - 1)
        err = np.abs(value - total)
        tol = max(settings.abs_tol, settings.rel_tol * float(np.abs(value).max()))
        if err.max() <= tol:
            return value, err, n, g
        if n >= _RULE_MAX_NODES:
            exc = NumericsError(
                f"the transform out to tau* = {tau_star:.6g} is {np.max(err):.3g} off at "
                f"{n} nodes, above {tol:.3g}"
            )
            exc.g = g
            raise exc
        total, n = value, 2 * n - 1
        g_n = _level(g, n, g_new)
        _refuse_decreasing(g_n)
        # y is on the level below, so its new nodes are the odd ones
        y = _level(y, n, lambda s_new: integrand(s_new, g_n[1::2]))


@functools.lru_cache(maxsize=4)
def _active_pairs(sys: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pairs l < l' with h_{l,l'} != 0, once per system (matched by
    identity), as read-only index arrays. SystemSpec rejects a vanishing
    [H_S, A], so there is at least one."""
    l, l2 = np.nonzero(np.triu(sys.h_elements != 0, 1))
    l.flags.writeable = l2.flags.writeable = False
    return l, l2


def me_steady_state(
    sys: SystemSpec,
    bath: BathParams,
    sd: SpectralDensity,
    q: QuadratureSettings | None = None,
) -> MEResult:
    """Master-equation coherences for every coupling-eigenbasis pair.

    The transforms of all pairs with h_{l,l'} != 0, at both signs of wbar,
    are one vector-valued integrand, so G is evaluated once per tau node for
    all of them. It runs out to one cut tau*, the smallest rung of the ladder
    max(beta, 4/w_c) 1.5^k where the weakest pair's lam^2 a^2 Re G reaches the
    tail cutoff; G at the rungs up to max(beta, 4/w_c) is one G call.
    diagnostics["tau_star"] is that cut. The integral to tau* is an order-8
    Gregory rule in s on tau = tau* s^3 (G's tau^2 ln tau start becomes
    s^6 ln s), on N = 257 uniform s-nodes doubled, with G evaluated at the
    rule's own nodes (the first 257 in one call, then the new midpoints
    only), until the last two sums agree to max(abs_tol, rel_tol * max|I_N|)
    in every component. Per-pair diagnostics give the rule's level N
    (evaluations, the nodes the integrand is evaluated on), the pair's own
    |I_N - I_(N+1)/2| with both signs of wbar summed (error_estimate), and
    its tail bound e^{-lam^2 a^2 Re G(tau*)} tau*.

    G at the ladder's rungs is kept for the last density object, beta and
    quadrature settings, and G at the rule's nodes for the last cut too, even
    when the rule raises. So along a lambda^2 Q sweep a point on the last
    point's cut makes no G call and a point on a new cut skips the ladder;
    diagnostics["g_reused"] reports that the rule's nodes came from the memo.
    A reused value is the one a fresh evaluation would give, bit for bit.

    Raises NumericsError when lam^2 (a_l - a_l')^2 overflows, when G is not
    finite or Re G decreases at the rungs or the nodes, and when the rule
    still misses its tolerance at 16385 nodes.
    """
    global _last_g
    s = q or QuadratureSettings()
    if not bath.lam > 0:
        raise ValidationError("the master-equation form needs lambda > 0")
    beta, lam = bath.beta, bath.lam
    l, l2 = _active_pairs(sys)
    # No e^{beta wbar} factor here, so no cap on the gaps.
    pairs = _pair_table(sys, bath, RenormalizationConvention.NATURAL, sd, l, l2, cap=False)
    p, wbar, s_pair = pairs.populations, pairs.omega, pairs.scale
    q_reorg = sd.reorganization_energy()
    key = (beta, s)
    entry = _last_g  # read once: a concurrent swap is then just a miss
    if entry is None or entry[0] is not sd or entry[1] != key:
        entry = (sd, key, None, None, None)
    tau_star, g_star, ladder = _find_tau_max(sd, beta, float(s_pair.min()), s, entry[2])
    reused = entry[3] == tau_star
    g = entry[4] if reused else np.array([0.0, g_star])

    # components: I1 of every pair, then conj(I2), the transform at -wbar
    s_c = np.concatenate([s_pair, s_pair])
    w_c = np.concatenate([wbar, -wbar])

    def f(t, g):  # outer products by broadcasting, as np.outer forms them
        phase = (g.imag + q_reorg * t)[:, None] * s_c - t[:, None] * w_c
        return np.exp(-g.real[:, None] * s_c + 1j * phase)

    def g_new(s_nodes):
        return _g_batch(sd, beta, tau_star * s_nodes**3, s)

    try:
        total, err, evals, g = _transform(f, g, g_new, tau_star, s)
    except NumericsError as exc:
        g = getattr(exc, "g", g)  # the node cap: G as far as the rule read it
        raise
    finally:
        g.flags.writeable = False
        _last_g = (sd, key, ladder, tau_star, g)

    n = len(l)
    val = sys.h_elements[l, l2] * (1j * p[l] * total[:n] - 1j * p[l2] * np.conj(total[n:]))
    coh = np.zeros((sys.dim, sys.dim), dtype=complex)
    coh[l, l2] = val
    coh[l2, l] = np.conj(val)
    tail = np.exp(-s_pair * g_star.real) * tau_star
    per_pair = {
        (int(a), int(b)): {"error_estimate": float(e), "evaluations": evals,
                           "tail_bound": float(t)}
        for a, b, e, t in zip(l, l2, err[:n] + err[n:], tail)
    }
    diagnostics = {"per_pair": per_pair, "tau_star": tau_star, "g_reused": reused}
    v = sys.a_eigenvectors
    state = DensityMatrix(v @ (coh + np.diag(p)) @ v.conj().T, check_positive=False)
    return MEResult(coherences=coh, populations=p, state=state, diagnostics=diagnostics)


def me_state(sys: SystemSpec, result: MEResult) -> DensityMatrix:
    """result.state, the full state in the original basis (PSD not enforced)."""
    return result.state
