import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meanforce.errors import QuadratureError, ValidationError
import heapq

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
# covering every regime switch: series (<1), Rybicki (1..6), asymptotic (>6).
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
        lambda x: np.sin(np.multiply.outer(x, np.arange(1.0, 13.0)).reshape(15, 3, 4)),
        lambda x: np.exp((0.3 + 2j) * x)[:, None] * np.array([1.0, -2.5j]),
    ],
    ids=["real-scalar", "real-3x4", "complex-2"],
)
def test_gk15_bit_identical_to_tensordot_form(f):
    (seg,) = _gk15_panels(f, [0.25, 1.75])
    value, resabs, err_vec = _gk15_tensordot_form(f, 0.25, 1.75)
    assert np.shape(seg.value) == np.shape(value)
    assert np.array_equal(seg.value, value)
    assert np.array_equal(seg.resabs, resabs)
    assert np.array_equal(seg.err_vec, err_vec)
    assert seg.err == float(np.max(err_vec))


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
    # that first meets it raises: the initial call and 37 bisections, where
    # a NaN error estimate would run all 2000.
    g, calls = _logged(lambda x: (1.0 - x) ** -0.7)
    with pytest.raises(QuadratureError, match="not finite"):
        with np.errstate(divide="ignore"):
            integrate_finite(g, 0.0, 1.0)
    assert len(calls) == 38


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
        QuadratureSettings(max_subdivisions=0)
    with pytest.raises(ValidationError):
        QuadratureResult(1.0, -1.0, 0)


def integrate_finite_per_panel(f, a, b, settings=None):
    """integrate_finite as it was with one integrand call per GK15 panel: the
    reference for the batched engine (a < b only)."""
    s = settings or QuadratureSettings()

    def gk15(lo, hi):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        return _gk15(lo, hi, _eval_nodes(f, c + h * _XGK))

    pts = _initial_breakpoints(a, b)
    segs = [gk15(lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
    evals = 15 * len(segs)

    total = sum(seg.value for seg in segs)
    total_resabs = float(np.max(sum(np.asarray(seg.resabs, dtype=float) for seg in segs)))
    heap = []
    counter = 0
    for seg in segs:
        heapq.heappush(heap, (-seg.err, counter, seg))
        counter += 1
    err_vec = sum(seg.err_vec for seg in segs)
    total_err = float(np.max(err_vec))

    min_width = 1e-14 * max(abs(a), abs(b), b - a)
    n_bisections = 0
    noise_floor = 100.0 * np.finfo(float).eps
    dead_err = 0.0
    while True:
        tol = max(s.abs_tol, s.rel_tol * float(np.max(np.abs(total))))
        if total_err <= tol:
            break
        if total_err <= noise_floor * total_resabs:
            break
        if n_bisections >= s.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={s.max_subdivisions} exceeded "
                f"(error estimate {total_err:.3e}, tolerance {tol:.3e})",
                best_estimate=total,
                error_estimate=total_err,
            )
        while heap and (heap[0][2].b - heap[0][2].a) <= min_width:
            _, _, dead = heapq.heappop(heap)
            dead_err += dead.err
        if not heap:
            break
        if dead_err > 0 and total_err - dead_err <= 0.1 * dead_err:
            break
        _, _, seg = heapq.heappop(heap)
        mid = 0.5 * (seg.a + seg.b)
        left = gk15(seg.a, mid)
        right = gk15(mid, seg.b)
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


_POINTWISE = {
    "real-scalar": (lambda x: np.exp(-x) * np.cos(7.0 * x), 0.0, 3.0),
    "real-n3": (lambda x: np.stack([np.sqrt(x), 1e-6 * np.sqrt(x), x**2], axis=-1), 0.0, 1.0),
    "complex": (lambda x: np.exp((0.3 + 20j) * x), 0.0, 5.0),
    "many-bisections": (lambda x: np.sin(50.0 * x), 0.0, 10.0),
    "endpoint-singularity": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
}


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
    ref = integrate_finite_per_panel(f, a, b)
    assert type(r.value) is type(ref.value)
    assert np.array_equal(r.value, ref.value)
    assert r.error_estimate == ref.error_estimate
    assert np.array_equal(r.component_errors, ref.component_errors)
    assert r.evaluations == ref.evaluations
    n_bisections = (r.evaluations - 135) // 30
    assert calls == [(135,)] + [(30,)] * n_bisections
    if name == "many-bisections":
        assert n_bisections >= 20
    if name == "endpoint-singularity":
        # Stopped by min-width retirement, with the tolerance unmet.
        assert r.error_estimate > 1e-10 * abs(r.value)


def test_batched_panels_keep_the_per_panel_best_estimate():
    def f(x):
        return np.sin(1.0 / (x + 1e-3))

    s = QuadratureSettings(max_subdivisions=20)
    g, calls = _logged(f)
    with pytest.raises(QuadratureError) as got:
        integrate_finite(g, 0.0, 1.0, s)
    with pytest.raises(QuadratureError) as ref:
        integrate_finite_per_panel(f, 0.0, 1.0, s)
    assert got.value.best_estimate == ref.value.best_estimate
    assert got.value.error_estimate == ref.value.error_estimate
    assert calls == [(135,)] + [(30,)] * 20
