import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanforce.errors import NumericsError, UnsupportedOperationError, ValidationError
from meanforce.spectral import BathParams, DiscreteModes, LorentzDrude
from meanforce.steady import (
    CorrectionMethod,
    RegimeThresholds,
    RenormalizationConvention,
    SystemSpec,
    f_exact,
    f_high_t,
    f_series,
    steady_state,
    zeroth_order_state,
)

# Frozen 25-digit references: spin-boson (eps=1, delta=0.7), Lorentz-Drude
# (Q=1, omega_c=0.25), beta=1, lam^2=3. Index 0 is the a=-1 eigenvector.
F_EXACT_REF = {(1, 0): 0.38371205040798463, (0, 1): 0.14115977467483769}

EXACT = CorrectionMethod.EXACT_QUADRATURE
HIGH_T = CorrectionMethod.HIGH_TEMPERATURE_DAWSON
SERIES = CorrectionMethod.ULTRASTRONG_SERIES
RENORM = RenormalizationConvention.RENORMALIZED
NATURAL = RenormalizationConvention.NATURAL


def spin_system(eps=1.0, delta=0.7):
    h = np.array([[eps / 2.0, delta / 2.0], [delta / 2.0, -eps / 2.0]])
    return SystemSpec(h, np.diag([1.0, -1.0]))


def random_system(rng, dim):
    a = np.diag(np.sort(rng.uniform(-2.0, 2.0, dim) + np.arange(dim) * 1.5))
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (h + h.conj().T)
    return SystemSpec(h, a)


def test_system_spec_derived_quantities():
    sys = spin_system()
    assert sys.dim == 2
    # ascending a eigenvalues: index 0 is a=-1, pseudo energy -eps/2
    assert np.allclose(sys.a_eigenvalues, [-1.0, 1.0])
    assert np.allclose(sys.pseudo_energies, [-0.5, 0.5])
    assert sys.gaps[1, 0] == pytest.approx(1.0)
    assert sys.a_diffs[1, 0] == pytest.approx(2.0)
    assert sys.h_elements[0, 1] == pytest.approx(0.35)


def test_system_spec_rejections():
    with pytest.raises(ValidationError):
        SystemSpec(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))  # [H, A] = 0
    with pytest.raises(ValidationError):
        SystemSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))  # degenerate A
    with pytest.raises(ValidationError):
        SystemSpec(np.zeros((2, 2)), np.diag([1.0, -1.0, 0.0]))  # dim mismatch
    with pytest.raises(ValidationError):
        SystemSpec(np.ones((1, 1)), np.ones((1, 1)))


def test_f_exact_lambda_zero_closed_form():
    # At lam=0 the kernel drops out: f = (e^{beta w} - 1)/w.
    sys = spin_system()
    bath = BathParams(beta=1.3, lam=0.0)
    sd = LorentzDrude(1.0, 0.25)
    for l, l2 in ((1, 0), (0, 1)):
        w = float(sys.gaps[l, l2])
        ref = math.expm1(bath.beta * w) / w
        assert f_exact(sys, bath, sd, l, l2).value == pytest.approx(ref, rel=1e-11)


def test_f_exact_frozen_reference():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=math.sqrt(3.0))
    sd = LorentzDrude(1.0, 0.25)
    for (l, l2), ref in F_EXACT_REF.items():
        r = f_exact(sys, bath, sd, l, l2)
        assert r.value == pytest.approx(ref, rel=1e-9)
        assert r.error_estimate < 1e-8
        assert r.evaluations > 0


def test_f_high_t_approaches_f_exact():
    # The Dawson form is the parabolic-kernel value; agreement tightens as
    # omega_c*beta shrinks.
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=math.sqrt(3.0))
    devs = []
    for wc in (0.25, 0.02):
        sd = LorentzDrude(1.0, wc)
        ex = f_exact(sys, bath, sd, 1, 0).value
        ht = f_high_t(sys, bath, sd, 1, 0)
        devs.append(abs(ht / ex - 1.0))
    assert devs[0] < 0.03
    assert devs[1] < 3e-3
    assert devs[1] < devs[0]


def test_f_series_consistency_trend():
    # Series vs Dawson deviation shrinks like 1/(lam^2 Q beta); measured
    # dev*lam2qb drifts from 0.66 down toward 0.51 for this spin pair.
    sys = spin_system()
    sd = LorentzDrude(1.0, 0.25)
    devs = []
    for lam2qb in (5.0, 10.0, 20.0):
        bath = BathParams(beta=1.0, lam=math.sqrt(lam2qb))
        ht = f_high_t(sys, bath, sd, 1, 0)
        se = f_series(sys, bath, sd, 1, 0)
        devs.append(abs(se / ht - 1.0))
    assert devs[0] > devs[1] > devs[2]
    for dev, lam2qb in zip(devs, (5.0, 10.0, 20.0)):
        assert dev < 0.7 / lam2qb


def test_f_methods_reject_lambda_zero():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=0.0)
    sd = LorentzDrude(1.0, 0.25)
    with pytest.raises(UnsupportedOperationError):
        f_high_t(sys, bath, sd, 1, 0)
    with pytest.raises(UnsupportedOperationError):
        f_series(sys, bath, sd, 1, 0)


def test_f_methods_overflow_guard():
    # beta*gap beyond ~700 cannot be represented through e^{beta w}.
    sys = spin_system(eps=800.0, delta=10.0)
    bath = BathParams(beta=1.0, lam=1.0)
    sd = LorentzDrude(1.0, 0.25)
    for fn in (lambda: f_exact(sys, bath, sd, 1, 0),
               lambda: f_high_t(sys, bath, sd, 1, 0),
               lambda: f_series(sys, bath, sd, 1, 0)):
        with pytest.raises(NumericsError):
            fn()


def test_f_pair_index_validation():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=1.0)
    sd = LorentzDrude(1.0, 0.25)
    with pytest.raises(ValidationError):
        f_exact(sys, bath, sd, 0, 0)
    with pytest.raises(ValidationError):
        f_high_t(sys, bath, sd, 0, 5)


def test_f_series_natural_zero_eigenvalue_guard():
    h = np.array([[0.5, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, -0.4]])
    sys = SystemSpec(h, np.diag([-1.0, 0.0, 1.0]))
    bath = BathParams(beta=1.0, lam=2.0)
    sd = LorentzDrude(1.0, 0.25)
    with pytest.raises(ValidationError):
        f_series(sys, bath, sd, 1, 0, conv=NATURAL)
    # the renormalized variant never divides by a single eigenvalue
    assert f_series(sys, bath, sd, 1, 0) > 0.0


def hermiticity_violation(sys, bath, sd, method, conv=RENORM):
    from meanforce.steady import _effective_energies, _populations

    p = _populations(_effective_energies(sys, bath, conv, sd), bath.beta)
    worst = 0.0
    for l in range(sys.dim):
        for l2 in range(sys.dim):
            if l == l2:
                continue
            if method is EXACT:
                a = f_exact(sys, bath, sd, l, l2, conv=conv).value
                b = f_exact(sys, bath, sd, l2, l, conv=conv).value
            elif method is HIGH_T:
                a = f_high_t(sys, bath, sd, l, l2, conv=conv)
                b = f_high_t(sys, bath, sd, l2, l, conv=conv)
            else:
                a = f_series(sys, bath, sd, l, l2, conv=conv)
                b = f_series(sys, bath, sd, l2, l, conv=conv)
            lhs, rhs = p[l] * a, p[l2] * b
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return worst


def test_hermiticity_identity_all_methods():
    rng = np.random.default_rng(0)
    sd = DiscreteModes([(0.6, 0.8), (0.4, 2.1)])
    for dim in (2, 3, 4):
        sys = random_system(rng, dim)
        bath = BathParams(beta=0.9, lam=1.4)
        for method in (EXACT, HIGH_T, SERIES):
            assert hermiticity_violation(sys, bath, sd, method) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.3, max_value=2.0),
       st.floats(min_value=0.5, max_value=3.0))
def test_hermiticity_identity_property(seed, beta, lam):
    # Closed-form methods only: cheap enough for a property sweep.
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 3)
    bath = BathParams(beta=beta, lam=lam)
    sd = DiscreteModes([(0.5, 1.0)])
    assert hermiticity_violation(sys, bath, sd, HIGH_T) < 1e-9
    assert hermiticity_violation(sys, bath, sd, SERIES) < 1e-9


def test_zeroth_order_state_gibbs_weights():
    sys = spin_system()
    bath = BathParams(beta=2.0, lam=5.0)
    rho = zeroth_order_state(sys, bath)
    # diagonal in the A eigenbasis with e^{-beta h_l} weights
    z = math.exp(1.0) + math.exp(-1.0)
    v = sys.a_eigenvectors
    diag = np.real(np.diag(v.conj().T @ rho.entries @ v))
    assert diag[0] == pytest.approx(math.exp(1.0) / z, rel=1e-12)
    assert diag[1] == pytest.approx(math.exp(-1.0) / z, rel=1e-12)


def test_zeroth_order_natural_needs_density():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=1.0)
    with pytest.raises(ValidationError):
        zeroth_order_state(sys, bath, conv=NATURAL)
    # for sigma_z coupling a_l^2 = 1 on both levels: conventions coincide
    sd = LorentzDrude(1.0, 0.25)
    a = zeroth_order_state(sys, bath, sd=sd).entries
    b = zeroth_order_state(sys, bath, conv=NATURAL, sd=sd).entries
    assert np.allclose(a, b, atol=1e-14)


def test_zeroth_order_natural_shifts_populations():
    # Unequal a_l^2 makes the conventions differ.
    h = np.array([[0.5, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, -0.4]])
    sys = SystemSpec(h, np.diag([-1.0, 0.1, 1.5]))
    bath = BathParams(beta=1.0, lam=1.2)
    sd = LorentzDrude(1.0, 0.25)
    a = zeroth_order_state(sys, bath, sd=sd).entries
    b = zeroth_order_state(sys, bath, conv=NATURAL, sd=sd).entries
    assert not np.allclose(a, b, atol=1e-6)


def test_steady_state_structure_and_diagnostics():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    sd = LorentzDrude(1.0, 0.25)
    res = steady_state(sys, bath, sd, method=HIGH_T)
    rho = res.state.entries
    assert np.allclose(rho, rho.conj().T, atol=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diag(res.f_values) == 0.0)
    d = res.diagnostics
    assert d["lambda2_q_beta"] == pytest.approx(5.0)
    assert d["omega_c_beta"] == pytest.approx(0.25)
    assert d["strong_coupling"] is True  # 5/0.5 = 10 >= 1
    assert d["series_regime"] is True  # 5 >= 3
    assert d["high_t_regime"] is True  # 0.25 <= 0.5
    assert isinstance(d["psd_ok"], bool)
    assert res.method is HIGH_T and res.convention is RENORM


def test_steady_state_coherences_match_pairwise_formula():
    # The array assembly against the defining per-pair expression.
    sys = random_system(np.random.default_rng(7), 4)
    res = steady_state(sys, BathParams(beta=0.8, lam=2.0), LorentzDrude(1.0, 0.25), method=SERIES)
    p, f, h = res.populations, res.f_values, sys.h_elements
    rho_a = np.diag(p).astype(complex)
    for l in range(4):
        for l2 in range(4):
            if l != l2:
                rho_a[l, l2] = -0.5 * (
                    p[l] * h[l, l2] * f[l, l2] + np.conj(h[l2, l]) * p[l2] * f[l2, l]
                )
    v = sys.a_eigenvectors
    assert np.array_equal(res.state.entries, v @ rho_a @ v.conj().T)


def test_steady_state_thresholds_respected():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    sd = LorentzDrude(1.0, 0.25)
    th = RegimeThresholds(strong_coupling=100.0, series=100.0, high_t=0.01)
    d = steady_state(sys, bath, sd, method=HIGH_T, thresholds=th).diagnostics
    assert d["strong_coupling"] is False
    assert d["series_regime"] is False
    assert d["high_t_regime"] is False


def test_steady_state_convention_equivalence_spin_boson():
    # a^2 is 1 on both levels, so the renormalization is a uniform energy
    # shift and every output coincides.
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=math.sqrt(3.0))
    sd = LorentzDrude(1.0, 0.25)
    for method in (EXACT, HIGH_T, SERIES):
        a = steady_state(sys, bath, sd, method=method).state.entries
        b = steady_state(sys, bath, sd, method=method, conv=NATURAL).state.entries
        assert np.allclose(a, b, atol=1e-10)


def test_steady_state_coherences_decay_with_coupling():
    sys = spin_system()
    sd = LorentzDrude(1.0, 0.25)
    mags = []
    for lam2q in (2.0, 5.0, 12.0):
        bath = BathParams(beta=1.0, lam=math.sqrt(lam2q))
        res = steady_state(sys, bath, sd, method=HIGH_T)
        v = sys.a_eigenvectors
        rho_a = v.conj().T @ res.state.entries @ v
        mags.append(abs(rho_a[0, 1]))
    assert mags[0] > mags[1] > mags[2]
