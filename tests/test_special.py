import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meanforce.errors import QuadratureError, ValidationError
from meanforce.special import (
    QuadratureResult,
    QuadratureSettings,
    dawson,
    exp1,
    integrate_finite,
    integrate_semi_infinite,
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

# Frozen mpmath.e1 values; 1.5 is the series/continued-fraction switch.
EXP1_REF = (
    (0.01, 4.0379295765381138),
    (0.1, 1.8229239584193906),
    (0.5, 0.55977359477616081),
    (1.0, 0.21938393439552027),
    (1.4, 0.1162193125713579),
    (1.5, 0.10001958240663265),
    (1.6, 0.086308333697539774),
    (2.0, 0.04890051070806112),
    (5.0, 0.0011482955912753258),
    (10.0, 4.1569689296853243e-6),
    (50.0, 3.783264029550459e-24),
    (300.0, 1.7103842768045101e-133),
    (700.0, 1.4065187662340329e-307),
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


def test_exp1_matches_frozen_reference():
    for x, ref in EXP1_REF:
        assert exp1(x) == pytest.approx(ref, rel=5e-13)


def test_exp1_array_input_matches_scalar():
    xs = np.array([v for v, _ in EXP1_REF])
    out = exp1(xs)
    assert out.shape == xs.shape
    for i, (x, _) in enumerate(EXP1_REF):
        assert out[i] == exp1(x)


def test_exp1_rejects_nonpositive():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError):
            exp1(bad)


def test_exp1_recurrence():
    # d/dx E1 = -e^{-x}/x; check the integral identity
    # E1(a) - E1(b) = int_a^b e^{-t}/t dt against the quadrature engine.
    a, b = 0.7, 2.9
    r = integrate_finite(lambda t: np.exp(-t) / t, a, b)
    assert r.value == pytest.approx(exp1(a) - exp1(b), rel=1e-10)


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


def test_integrate_finite_complex_integrand():
    r = integrate_finite(lambda x: np.exp(1j * np.asarray(x)), 0.0, math.pi / 2)
    assert r.value == pytest.approx(1.0 + 1j, rel=1e-12)


def test_integrate_finite_propagates_integrand_error_without_retry():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        raise ValidationError("integrand refuses these nodes")

    with pytest.raises(ValidationError, match="refuses"):
        integrate_finite(f, 0.0, 1.0)
    assert calls == [(15,)]


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


def test_semi_infinite_exponential():
    r = integrate_semi_infinite(
        lambda w: np.exp(-np.asarray(w)), 0.0, lambda w: math.exp(-w)
    )
    assert r.value == pytest.approx(1.0, rel=1e-10)


def test_semi_infinite_gaussian():
    r = integrate_semi_infinite(
        lambda w: np.exp(-np.asarray(w) ** 2), 0.0, lambda w: math.exp(-(w**2))
    )
    assert r.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def test_semi_infinite_oscillatory_with_envelope():
    # int_0^inf t e^{-t/5} cos(t) dt = Re[(1/5 - i)^{-2}] = -150/169.
    def f(w):
        w = np.asarray(w)
        return w * np.exp(-w / 5.0) * np.cos(w)

    r = integrate_semi_infinite(f, 0.0, lambda w: w * math.exp(-w / 5.0), omega_ref=5.0)
    assert r.value == pytest.approx(-150.0 / 169.0, rel=1e-9)


def test_semi_infinite_algebraic_tail():
    # 1/(1+w^2) from 0: pi/2. Algebraic decay is slow but still truncatable.
    r = integrate_semi_infinite(
        lambda w: 1.0 / (1.0 + np.asarray(w, dtype=float) ** 2),
        0.0,
        lambda w: 1.0 / (1.0 + w**2),
        settings=QuadratureSettings(tail_cutoff_exponent=60.0),
    )
    assert r.value == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert abs(r.value - math.pi / 2.0) <= 10 * r.error_estimate


def test_semi_infinite_rejects_divergent_envelope():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(
            lambda w: np.ones_like(np.asarray(w, dtype=float)), 0.0, lambda w: 1.0
        )


def test_semi_infinite_too_slow_decay():
    # 1/w decays, but the geometric block sum never converges.
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(
            lambda w: 1.0 / np.asarray(w, dtype=float),
            1.0,
            lambda w: 1.0 / w,
            settings=QuadratureSettings(tail_cutoff_exponent=80.0),
        )


def test_quadrature_settings_validation():
    with pytest.raises(ValidationError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadratureSettings(max_subdivisions=0)
    with pytest.raises(ValidationError):
        QuadratureResult(1.0, -1.0, 0)
