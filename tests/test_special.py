import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from meanforce.errors import QuadratureError, ValidationError
import heapq

from meanforce import special
from meanforce.special import (
    _WG,
    _WGK,
    _XGK,
    QuadratureResult,
    QuadratureSettings,
    _eval_nodes,
    _gk15,
    _gk15_panels,
    _initial_breakpoints,
    dawson,
    integrate_finite,
)

# Frozen 40-digit references (mpmath: sqrt(pi)/2 * exp(-x^2) * erfi(x)),
# from near the origin through the maximum to the 1/(2x) tail.
DAWSON_REF = (
    (0.1, 0.099335992397852867),
    (0.5, 0.4244363835020223),
    (1.0, 0.53807950691276842),
    (2.0, 0.30134038892379197),
    (3.0, 0.17827103061055829),
    (5.0, 0.10213407442427684),
    (5.9, 0.086019681992648075),
    (6.1, 0.083116330508351494),
    (10.0, 0.050253847187598528),
    (25.0, 0.020016038554466408),
    (50.0, 0.010002001201201683),
)

def test_dawson_matches_frozen_reference():
    for x, ref in DAWSON_REF:
        assert dawson(x) == pytest.approx(ref, abs=1e-12)


def test_dawson_is_odd():
    for x, ref in DAWSON_REF:
        assert dawson(-x) == -dawson(x)
    assert dawson(0.0) == 0.0
    x = np.concatenate([np.geomspace(1e-300, 1e300, 301), np.linspace(0.0, 50.0, 401)])
    assert np.array_equal(dawson(-x), -dawson(x))
    assert np.array_equal(dawson(np.zeros((2, 3))), np.zeros((2, 3)))


def test_dawson_asymptotic_band():
    # |DF(x) - 1/(2x)| <= 1/(2x^3) holds from x=3 on.
    x = np.arange(3.0, 50.0 + 1e-9, 0.1)
    for xi in x:
        assert abs(dawson(xi) - 1.0 / (2.0 * xi)) <= 1.0 / (2.0 * xi**3)


def test_dawson_rejects_nonfinite():
    with pytest.raises(ValidationError):
        dawson(math.nan)
    with pytest.raises(ValidationError):
        dawson(math.inf)
    with pytest.raises(ValidationError):
        dawson(np.array([1.0, -math.inf]))


def _dawson_mpmath(x: float) -> mpmath.mpf:
    """DF(x) to 30 digits or more. Past |x| = 1e4, where erfi at this
    precision loses digits, four terms of the asymptotic series
    1/(2x) sum_k (2k-1)!!/(2x^2)^k; the first one left out is below 1e-31."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if abs(x) <= 1e4:
            return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)
        y = 1 / (2 * x * x)
        return (1 + y + 3 * y**2 + 15 * y**3) / (2 * x)


def test_dawson_arrays_against_mpmath():
    tiny, huge = 5e-324, np.finfo(float).max
    pos = np.unique(np.concatenate([
        np.linspace(0.0, 50.0, 2001)[1:],
        np.geomspace(1e-300, 1e307, 609),
        [tiny, 1e-310, 1e-300, 1e-20, 0.25, 0.75, 1e8, 1e150, 1e307, 4.5e307, huge],
    ]))
    x = np.concatenate([-pos[::-1], pos])
    d = dawson(x)
    assert d.shape == x.shape and np.isfinite(d).all()
    ref = [_dawson_mpmath(v) for v in x]
    abs_err = np.array([float(abs(mpmath.mpf(float(v)) - r)) for v, r in zip(d, ref)])
    rel_err = abs_err / np.array([float(abs(r)) for r in ref])
    assert np.max(abs_err[np.abs(x) <= 50.0]) < 1e-15
    assert np.max(rel_err[np.abs(x) >= 1e-300]) < 1e-14
    assert dawson(tiny) == tiny


def test_dawson_scalar_in_float_out():
    assert type(dawson(0.5)) is float
    assert type(dawson(np.float64(0.5))) is float
    assert type(dawson(np.array(0.5))) is float
    assert dawson(0.5) == dawson(np.array([0.5]))[0]


def test_dawson_element_bits_do_not_depend_on_shape():
    x = np.linspace(-8.0, 8.0, 60)
    flat = dawson(x)
    assert np.array_equal(dawson(x.reshape(3, 4, 5)), flat.reshape(3, 4, 5))
    assert np.array_equal(dawson(x[::-1]), flat[::-1])
    assert np.array_equal([dawson(float(v)) for v in x], flat)


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_dawson_positive_and_bounded(x):
    # DF has a single maximum ~0.5410442855 at x~0.9241; positive for x>0.
    v = dawson(x)
    assert 0.0 <= v <= 0.5411
    if x >= 1.0:
        assert v <= 1.0 / (2.0 * x) + 1.0 / (2.0 * x**3)


def test_integrate_finite_polynomial_is_exact():
    # Gauss7/Kronrod15 integrates low-degree polynomials to rounding.
    r = integrate_finite(lambda x: 3.0 * np.asarray(x) ** 2, 0.0, 2.0)
    assert r.value == pytest.approx(8.0, rel=1e-14)
    assert r.error_estimate < 1e-10


def test_integrate_finite_boundary_layer():
    # Steep edge layer: the endpoint seeding must catch it.
    r = integrate_finite(lambda x: np.exp(-100.0 * np.asarray(x)), 0.0, 1.0)
    exact = (1.0 - math.exp(-100.0)) / 100.0
    assert r.value == pytest.approx(exact, rel=1e-12)
    assert abs(r.value - exact) <= max(10 * r.error_estimate, 1e-13)


def test_integrate_finite_oscillatory():
    r = integrate_finite(lambda x: np.sin(np.asarray(x)), 0.0, math.pi)
    assert r.value == pytest.approx(2.0, rel=1e-13)
    # Over 50 periods the integral is 0, so the tolerance is abs_tol = 1e-14,
    # below the rounding of sums of |sin| = 200: refinement stops at the
    # noise floor, 100 eps of that, and reports the error it could not remove.
    r = integrate_finite(np.sin, 0.0, 100.0 * math.pi)
    assert 1e-14 < r.error_estimate <= 100.0 * np.finfo(float).eps * 200.0
    assert abs(r.value) <= r.error_estimate


def test_integrate_finite_vector_valued():
    # Trailing axes integrate componentwise in one pass.
    def f(x):
        x = np.asarray(x)
        return np.stack([x, x**2, np.sin(x)], axis=-1)

    r = integrate_finite(f, 0.0, 1.0)
    assert np.allclose(r.value, [0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], rtol=1e-12)


def test_integrate_finite_component_errors():
    # Each component keeps its own error estimate; error_estimate is their max.
    def f(x):
        x = np.asarray(x)
        return np.stack([np.sqrt(x), 1e-6 * np.sqrt(x), x**2], axis=-1)

    r = integrate_finite(f, 0.0, 1.0)
    err = r.component_errors
    assert err.shape == (3,)
    assert r.error_estimate == np.max(err)
    assert err[1] < 1e-5 * err[0]
    scalar = integrate_finite(lambda x: np.sqrt(np.asarray(x)), 0.0, 1.0)
    assert scalar.component_errors == scalar.error_estimate


def test_integrate_finite_complex_integrand():
    r = integrate_finite(lambda x: np.exp(1j * np.asarray(x)), 0.0, math.pi / 2)
    assert r.value == pytest.approx(1.0 + 1j, rel=1e-12)


def _gk15_tensordot_form(f, a, b):
    # One GK15 panel with the node sums taken by np.tensordot: the reference
    # for _gk15's direct matrix products. Returns (value, resabs, err_vec).
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = np.asarray(f(c + h * _XGK))
    resk = h * np.tensordot(_WGK, y, axes=(0, 0))
    resg = h * np.tensordot(_WG, y, axes=(0, 0))
    resabs = h * np.tensordot(_WGK, np.abs(y), axes=(0, 0))
    mean = resk / (b - a)
    asc = np.asarray(h * np.tensordot(_WGK, np.abs(y - mean), axes=(0, 0)), dtype=float)
    raw = np.asarray(np.abs(resk - resg), dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * raw / np.maximum(asc, 1e-300))
    scaled = np.where(asc > 0.0, asc * ratio**1.5, raw)
    err_vec = np.maximum(scaled, 50.0 * np.finfo(float).eps * np.asarray(resabs, dtype=float))
    return resk, resabs, err_vec


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.exp(-x) * np.cos(7.0 * x),
        lambda x: np.sin(np.multiply.outer(x, np.arange(1.0, 13.0)).reshape(-1, 3, 4)),
        lambda x: np.exp((0.3 + 2j) * x)[:, None] * np.array([1.0, -2.5j]),
    ],
    ids=["real-scalar", "real-3x4", "complex-2"],
)
def test_gk15_bit_identical_to_tensordot_form(f):
    # Every panel of a stack, alone or among others, gets the bits of its
    # own np.tensordot sums.
    edges = [(0.25, 1.75), (0.0, 0.25), (1.75, 3.0)]
    for n in (1, 3):
        lo, hi = (np.array(e) for e in zip(*edges[:n]))
        shape, value, resabs, err = _gk15_panels(f, lo, hi)
        for i in range(n):
            ref_value, ref_resabs, ref_err = _gk15_tensordot_form(f, lo[i], hi[i])
            assert shape == np.shape(ref_value)
            assert np.array_equal(value[i].reshape(shape), ref_value)
            assert np.array_equal(resabs[i].reshape(shape), ref_resabs)
            assert np.array_equal(err[i].reshape(shape), ref_err)


def test_integrate_finite_propagates_integrand_error_without_retry():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        raise ValidationError("integrand refuses these nodes")

    with pytest.raises(ValidationError, match="refuses"):
        integrate_finite(f, 0.0, 1.0)
    assert calls == [(135,)]  # one call on the 9 initial panels, not retried


def test_integrate_finite_nonfinite_integrand_raises_at_once():
    # A NaN in the sum fails every stopping test, so bisecting further is
    # futile: the first call with a non-finite value raises, naming its nodes.
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.stack([x, np.full_like(x, np.nan)], -1)

    with pytest.raises(QuadratureError, match="not finite on the nodes from"):
        integrate_finite(f, 0.0, 1.0)
    assert calls == [(135,)]


def test_integrate_finite_stops_where_nodes_reach_a_pole():
    # Nodes next to b = 1 round onto 1, where (1 - x)^-0.7 is inf; the call
    # that first meets it raises: the initial call and 33 rounds, where a NaN
    # error estimate would run all 2000 bisections.
    g, calls = _logged(lambda x: (1.0 - x) ** -0.7)
    with pytest.raises(QuadratureError, match="not finite"):
        with np.errstate(divide="ignore"):
            integrate_finite(g, 0.0, 1.0)
    assert len(calls) == 34


def test_integrate_finite_empty_interval_keeps_value_shape():
    # a == b integrates to zeros shaped like one integrand value, learnt at
    # one evaluation; a scalar integrand still gets a float.
    r = integrate_finite(lambda x: np.stack([x, x**2], -1), 1.0, 1.0)
    assert r.value.shape == r.component_errors.shape == (2,)
    assert np.all(r.value == 0.0) and np.all(r.component_errors == 0.0)
    assert r.error_estimate == 0.0 and r.evaluations == 1
    scalar = integrate_finite(lambda x: x, 1.0, 1.0)
    assert type(scalar.value) is float and scalar.value == 0.0
    assert scalar.component_errors == 0.0 and scalar.evaluations == 1


def test_integrate_finite_rejects_scalar_integrand():
    with pytest.raises(ValidationError, match="one value per node"):
        integrate_finite(lambda x: 1.0, 0.0, 1.0)


def test_integrate_finite_rejects_bad_interval():
    with pytest.raises(ValidationError):
        integrate_finite(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValidationError):
        integrate_finite(lambda x: x, 0.0, math.inf)


def test_integrate_finite_determinism():
    def f(x):
        x = np.asarray(x)
        return np.exp(-x) * np.cos(7.0 * x)

    a = integrate_finite(f, 0.0, 12.0)
    b = integrate_finite(f, 0.0, 12.0)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_quadrature_settings_validation():
    with pytest.raises(ValidationError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadratureResult(1.0, -1.0, 0)


def _gk15_one_call_per_panel(f, lo, hi):
    # _gk15_panels with one integrand call and one 1-panel stack per panel.
    rows = []
    for i in range(len(lo)):
        c = 0.5 * (lo[i:i + 1] + hi[i:i + 1])
        h = 0.5 * (hi[i:i + 1] - lo[i:i + 1])
        y = _eval_nodes(f, (c[:, None] + h[:, None] * _XGK).ravel())
        rows.append(_gk15(lo[i:i + 1], hi[i:i + 1], y))
    return (y.shape[1:],) + tuple(np.concatenate(part) for part in zip(*rows))


def integrate_finite_per_panel(f, a, b, settings=None, rounds=None, breakpoints=None):
    """integrate_finite's round rule with one integrand call per GK15 panel:
    the reference for the engine's one call per round (a < b only), from the
    same initial panels. The number of panels bisected in each round is
    appended to rounds."""
    s = settings or QuadratureSettings()
    edges = np.array(_initial_breakpoints(a, b) if breakpoints is None else breakpoints)
    lo, hi = edges[:-1], edges[1:]
    shape, value, resabs, err = _gk15_one_call_per_panel(f, lo, hi)
    total_resabs = float(np.max(np.sum(resabs, axis=0)))
    min_width = 1e-14 * max(abs(a), abs(b), b - a)
    n_bisections = 0
    while True:
        total = value.sum(axis=0).reshape(shape)[()]
        err_vec = err.sum(axis=0)
        total_err = float(err_vec.max())
        tol = max(s.abs_tol, s.rel_tol * float(np.abs(total).max()))
        if total_err <= tol or total_err <= 100.0 * np.finfo(float).eps * total_resabs:
            break
        if n_bisections >= special._MAX_SUBDIVISIONS:
            raise QuadratureError("budget", best_estimate=total, error_estimate=total_err)
        panel_err = err.max(axis=1)
        live = hi - lo > min_width
        dead_err = float(panel_err[~live].sum())
        if not live.any() or (dead_err > 0 and total_err - dead_err <= 0.1 * dead_err):
            break
        order = np.flatnonzero(live)
        order = order[np.argsort(-panel_err[order], kind="stable")]
        need = total_err - tol
        k = next((i + 1 for i, c in enumerate(np.cumsum(panel_err[order])) if c >= need), len(order))
        pick = order[:min(k, special._MAX_SUBDIVISIONS - n_bisections)]
        if rounds is not None:
            rounds.append(len(pick))
        mid = 0.5 * (lo[pick] + hi[pick])
        halves_lo = np.column_stack((lo[pick], mid)).ravel()
        halves_hi = np.column_stack((mid, hi[pick])).ravel()
        _, halves_value, _, halves_err = _gk15_one_call_per_panel(f, halves_lo, halves_hi)
        n_bisections += len(pick)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate((lo[keep], halves_lo))
        hi = np.concatenate((hi[keep], halves_hi))
        value = np.concatenate((value[keep], halves_value))
        err = np.concatenate((err[keep], halves_err))
    n_panels = len(edges) - 1 + 2 * n_bisections
    return QuadratureResult(total, total_err, 15 * n_panels, err_vec.reshape(shape)[()])


def integrate_finite_sequential(f, a, b, settings=None):
    """integrate_finite with one bisection at a time instead of rounds: worst
    error first from a heap, one integrand call per panel (a < b only)."""
    s = settings or QuadratureSettings()

    def gk15(lo, hi):
        shape, value, resabs, err = _gk15_one_call_per_panel(f, np.array([lo]), np.array([hi]))
        return (lo, hi, value[0], resabs[0], err[0], float(np.max(err))), shape

    pts = _initial_breakpoints(a, b)
    segs, shapes = zip(*(gk15(lo, hi) for lo, hi in zip(pts[:-1], pts[1:])))
    shape = shapes[0]
    evals = 15 * len(segs)
    total = sum(seg[2] for seg in segs)
    total_resabs = float(np.max(sum(seg[3] for seg in segs)))
    heap = [(-seg[5], i, seg) for i, seg in enumerate(segs)]
    heapq.heapify(heap)
    counter = len(segs)
    err_vec = sum(seg[4] for seg in segs)
    total_err = float(np.max(err_vec))
    min_width = 1e-14 * max(abs(a), abs(b), b - a)
    n_bisections = 0
    dead_err = 0.0
    while True:
        tol = max(s.abs_tol, s.rel_tol * float(np.max(np.abs(total))))
        if total_err <= tol or total_err <= 100.0 * np.finfo(float).eps * total_resabs:
            break
        if n_bisections >= special._MAX_SUBDIVISIONS:
            raise QuadratureError("budget", best_estimate=total, error_estimate=total_err)
        while heap and heap[0][2][1] - heap[0][2][0] <= min_width:
            dead_err += heapq.heappop(heap)[2][5]
        if not heap or (dead_err > 0 and total_err - dead_err <= 0.1 * dead_err):
            break
        seg = heapq.heappop(heap)[2]
        mid = 0.5 * (seg[0] + seg[1])
        children = (gk15(seg[0], mid)[0], gk15(mid, seg[1])[0])
        evals += 30
        n_bisections += 1
        total = total - seg[2] + children[0][2] + children[1][2]
        err_vec = err_vec - seg[4] + children[0][4] + children[1][4]
        total_err = float(np.max(err_vec))
        for child in children:
            heapq.heappush(heap, (-child[5], counter, child))
            counter += 1
    errors = err_vec.reshape(shape)
    return QuadratureResult(total.reshape(shape)[()], total_err, evals, float(errors) if errors.ndim == 0 else errors)


_POINTWISE = {
    "real-scalar": (lambda x: np.exp(-x) * np.cos(7.0 * x), 0.0, 3.0),
    "real-n3": (lambda x: np.stack([np.sqrt(x), 1e-6 * np.sqrt(x), x**2], axis=-1), 0.0, 1.0),
    "complex": (lambda x: np.exp((0.3 + 20j) * x), 0.0, 5.0),
    "many-bisections": (lambda x: np.sin(50.0 * x), 0.0, 10.0),
    "endpoint-singularity": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
}
# Integrand calls under the round rule: the initial call and one per round.
CALLS = {"real-scalar": 3, "real-n3": 8, "complex": 6, "many-bisections": 8, "endpoint-singularity": 35}


def _logged(f):
    calls = []

    def g(x):
        calls.append(x.shape)
        return f(x)

    return g, calls


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_batched_panels_keep_the_per_panel_bits(name):
    f, a, b = _POINTWISE[name]
    g, calls = _logged(f)
    r = integrate_finite(g, a, b)
    rounds = []
    ref = integrate_finite_per_panel(f, a, b, rounds=rounds)
    assert type(r.value) is type(ref.value)
    assert np.array_equal(r.value, ref.value)
    assert r.error_estimate == ref.error_estimate
    assert np.array_equal(r.component_errors, ref.component_errors)
    assert r.evaluations == ref.evaluations
    # One call on the 9 initial panels, then one per round on all its halves.
    assert calls == [(135,)] + [(30 * k,) for k in rounds]
    assert r.evaluations == 135 + 30 * sum(rounds)
    assert len(calls) == CALLS[name]
    if name == "many-bisections":
        assert sum(rounds) >= 20
    if name == "endpoint-singularity":
        # Stopped by min-width retirement, with the tolerance unmet.
        assert r.error_estimate > 1e-10 * abs(r.value)


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_rounds_agree_with_the_sequential_form(name):
    # Bisecting a round's whole prefix at once lands within the two results'
    # error estimates of one bisection at a time, at no more than 5 % more
    # integrand evaluations.
    f, a, b = _POINTWISE[name]
    r = integrate_finite(f, a, b)
    seq = integrate_finite_sequential(f, a, b)
    assert np.shape(r.value) == np.shape(seq.value)
    assert np.all(np.abs(np.subtract(r.value, seq.value))
                  <= np.add(r.component_errors, seq.component_errors))
    assert r.evaluations <= 1.05 * seq.evaluations


def test_batched_panels_keep_the_per_panel_best_estimate(monkeypatch):
    def f(x):
        return np.sin(1.0 / (x + 1e-3))

    monkeypatch.setattr(special, "_MAX_SUBDIVISIONS", 20)
    g, calls = _logged(f)
    with pytest.raises(QuadratureError) as got:
        integrate_finite(g, 0.0, 1.0)
    rounds = []
    with pytest.raises(QuadratureError) as ref:
        integrate_finite_per_panel(f, 0.0, 1.0, rounds=rounds)
    assert got.value.best_estimate == ref.value.best_estimate
    assert got.value.error_estimate == ref.value.error_estimate
    # The last round takes only what is left of the budget: 20 bisections.
    assert sum(rounds) == 20
    assert calls == [(135,)] + [(30 * k,) for k in rounds]


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_default_breakpoints_given_explicitly_keep_every_bit(name):
    f, a, b = _POINTWISE[name]
    r = integrate_finite(f, a, b)
    given_ = integrate_finite(f, a, b, breakpoints=_initial_breakpoints(a, b))
    assert type(given_.value) is type(r.value)
    assert np.array_equal(given_.value, r.value)
    assert given_.error_estimate == r.error_estimate
    assert np.array_equal(given_.component_errors, r.component_errors)
    assert given_.evaluations == r.evaluations


def test_caller_breakpoints_set_the_first_panels():
    # A layer e^{-1e6 x}: panels at its own width see it from the first call;
    # the engine bisects from there under the same round rule, and evaluations
    # still counts 15 per panel.
    def f(x):
        return np.exp(-1e6 * x)

    edges = np.array([0.0, 1e-7, 1e-6, 1e-5, 1e-4, 0.5, 1.0])
    g, calls = _logged(f)
    r = integrate_finite(g, 0.0, 1.0, breakpoints=edges)
    rounds = []
    ref = integrate_finite_per_panel(f, 0.0, 1.0, rounds=rounds, breakpoints=edges)
    assert r.value == ref.value and r.error_estimate == ref.error_estimate
    assert calls == [(90,)] + [(30 * k,) for k in rounds]
    assert r.evaluations == 90 + 30 * sum(rounds)
    assert r.value == pytest.approx(1e-6 * -math.expm1(-1e6), rel=1e-12)


@pytest.mark.parametrize("edges", [
    [0.0, 0.5, 0.25, 1.0],  # unsorted
    [0.0, 0.5, 0.5, 1.0],  # a repeated edge
    [-0.1, 0.5, 1.0],  # starts outside [a, b]
    [0.0, 0.5, 1.1],  # ends outside [a, b]
    [0.1, 0.5, 1.0],  # does not start at a
    [0.0, math.nan, 1.0],
    [0.0, math.inf],
    [1.0],
    [[0.0, 1.0]],
])
def test_bad_breakpoints_are_refused(edges):
    with pytest.raises(ValidationError, match="breakpoints"):
        integrate_finite(np.sin, 0.0, 1.0, breakpoints=edges)
