import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanforce import steady
from meanforce.errors import NumericsError, UnsupportedOperationError, ValidationError
from meanforce.special import QuadratureResult, integrate_finite
from meanforce.spectral import BathParams, DiscreteModes, LorentzDrude
from meanforce.steady import (
    CorrectionMethod,
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
    assert sys.pseudo_energies[1] - sys.pseudo_energies[0] == pytest.approx(1.0)
    assert sys.a_eigenvalues[1] - sys.a_eigenvalues[0] == pytest.approx(2.0)
    assert sys.h_elements[0, 1] == pytest.approx(0.35)


def test_system_spec_rejections():
    with pytest.raises(ValidationError):
        SystemSpec(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))  # [H, A] = 0
    with pytest.raises(ValidationError):
        SystemSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))  # degenerate A
    with pytest.raises(ValidationError, match="degenerate"):
        # [H_S, A] does not vanish, so the degeneracy is what stops it.
        SystemSpec(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                   np.diag([1.0, 1.0, -1.0]))
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
        w = float(sys.pseudo_energies[l] - sys.pseudo_energies[l2])
        ref = math.expm1(bath.beta * w) / w
        assert f_exact(sys, bath, sd, l, l2).value == pytest.approx(ref, rel=1e-11)
        # A coupling whose x = lambda^2 (a_l - a_l')^2 Q beta underflows to 0
        # while lambda^2 (a_l - a_l')^2 does not: the panels follow the gap.
        tiny = BathParams(beta=1.3, lam=1e-160)
        assert f_exact(sys, tiny, LorentzDrude(1e-5, 0.25), l, l2).value == pytest.approx(ref, rel=1e-11)


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


def test_natural_coupling_overflow_is_refused_with_the_coupling_note():
    # Natural shifts each pseudo energy by lambda^2 a_l^2 Q: past lambda =
    # 1.3e154 lambda^2 overflows, which is the coupling note, not a bare
    # OverflowError.
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=2e154)
    sd = LorentzDrude(1.0, 0.25)
    note = "coupling lambda\\^2 \\(a_l - a_l'\\)\\^2 overflows at lambda = 2e\\+154"
    for method in (EXACT, HIGH_T, SERIES):
        with pytest.raises(NumericsError, match=note):
            steady_state(sys, bath, sd, method, NATURAL)
    with pytest.raises(NumericsError, match=note):
        zeroth_order_state(sys, bath, NATURAL, sd)


def test_f_series_keeps_its_inverse_coupling_limit_past_lambda_1e77():
    # c = lambda^2 (a_l - a_l')^2 Q: c^2 and lambda^4 overflow from lambda ~ 1e77,
    # where the second-order term is below the first's rounding; the value is
    # the leading term, with no warning (the suite makes warnings errors).
    sys = spin_system()
    sd = LorentzDrude(1.0, 0.25)
    e = math.exp(1.0)
    for lam in (1e77, 1e100, 1e150):
        c = 4.0 * lam**2
        renorm = f_series(sys, BathParams(beta=1.0, lam=lam), sd, 1, 0)
        assert renorm == (1.0 + e) / c
        natural = f_series(sys, BathParams(beta=1.0, lam=lam), sd, 1, 0, NATURAL)
        assert natural == pytest.approx((1.0 + e) / c, rel=1e-15)
    # Below the overflow the second term is still there.
    lam = 1e76
    small = f_series(sys, BathParams(beta=1.0, lam=lam), sd, 1, 0)
    assert small == (1.0 + e) / (4.0 * lam**2) + (1.0 - e) / (4.0 * lam**2) ** 2


def test_f_exact_is_right_or_refused_at_large_coupling(monkeypatch):
    # The integrand's boundary layer at u = 0 has width beta/x, x = lambda^2
    # (a_l - a_l')^2 Q beta = 4 lambda^2 Q here. f_exact's first panels sit at
    # that width, so it tracks high-t far past the 4.5e7 where the generic
    # panels lost the layer; past x = 1e9 it is refused.
    sys = spin_system()
    sd = LorentzDrude(1.0, 0.25)
    l, l2 = np.array([1, 0]), np.array([0, 1])
    for lam2q, tol in ((1e5, 1e-5), (1e6, 1e-5), (1e8, 1e-7)):  # measured 4.6e-6, 5.5e-7, 6.0e-9
        bath = BathParams(beta=1.0, lam=math.sqrt(lam2q))
        ex = f_exact(sys, bath, sd, l, l2).value
        assert np.max(np.abs(ex / f_high_t(sys, bath, sd, l, l2) - 1.0)) <= tol
    for lam2q in (1e9, 1e12):
        with pytest.raises(NumericsError, match="refused at lambda"):
            f_exact(sys, BathParams(beta=1.0, lam=math.sqrt(lam2q)), sd, l, l2)
    # A value that comes out nonpositive is a numerical failure too.
    monkeypatch.setattr(steady, "integrate_finite",
                        lambda *a, **k: QuadratureResult(np.zeros(2), 0.0, 150, np.zeros(2)))
    with pytest.raises(NumericsError, match="nonpositive"):
        f_exact(sys, BathParams(beta=1.0, lam=1.0), sd, l, l2)


# f_{1,0} and f_{0,1} of spin_system() under Lorentz-Drude (Q = 1, omega_c =
# 0.25, beta = 1) at lambda = sqrt(x/4): 20-digit mpmath nested quadrature
# (K(u) by mpmath.quad over w, f by Gauss-Legendre on rungs at 0.1 ... 1000
# layer widths beta/x from each end), independent of the package's engine.
F_EXACT_LARGE_X_REF = {
    1e8: (3.7182819868155032605e-8, 1.3678794994275276044e-8),
    1e9: (3.7182818456573201067e-9, 1.3678794474983340704e-9),
}


def test_f_exact_against_mpmath_at_large_coupling():
    # Measured 2.8e-9 at x = 1e8 and 3.7e-8 at x = 1e9, each inside its
    # error estimate (8.4e-8 and 3.5e-6 relative; abs_tol sets it there).
    sys = spin_system()
    sd = LorentzDrude(1.0, 0.25)
    l, l2 = np.array([1, 0]), np.array([0, 1])
    for x, ref in F_EXACT_LARGE_X_REF.items():
        r = f_exact(sys, BathParams(beta=1.0, lam=math.sqrt(x / 4.0)), sd, l, l2)
        assert np.max(np.abs(r.value / ref - 1.0)) <= 1e-7
        assert np.all(np.abs(r.value - ref) <= r.component_errors)


@pytest.mark.parametrize("lam2qbeta", [1e4, 1e5])
def test_f_exact_resolves_every_pairs_layer(monkeypatch, lam2qbeta):
    # a = {0, 1, 10}: the pairs' layers, of width beta/x, span two decades.
    # At lambda^2 Q beta = 1e5 (largest x 1e7) first panels placed for the
    # largest x alone read the (0, 1) pair's layer as 0 past 100 of the
    # largest's widths and lost 37 % of f. The generic panels, which see
    # every layer up to x = 4.5e7, agree to 1.6e-11 (measured).
    h = np.diag([0.3, -0.2, 0.1]).astype(complex)
    h[0, 1] = h[1, 0] = 0.2
    h[1, 2] = h[2, 1] = 0.1
    sys = SystemSpec(h, np.diag([0.0, 1.0, 10.0]))
    sd = LorentzDrude(1.0, 0.25)
    bath = BathParams(beta=1.0, lam=math.sqrt(lam2qbeta))
    l, l2 = np.array([0, 1, 0, 1, 2, 2]), np.array([1, 0, 2, 2, 0, 1])
    r = f_exact(sys, bath, sd, l, l2)
    monkeypatch.setattr(steady, "_layer_breakpoints", lambda *a: None)
    generic = f_exact(sys, bath, sd, l, l2)
    assert np.max(np.abs(r.value / generic.value - 1.0)) <= 1e-9
    assert np.all(np.abs(r.value - generic.value) <= r.component_errors + generic.component_errors)


def test_f_exact_first_node_lies_inside_the_layer(monkeypatch):
    # The first u nodes sit at a fraction of the layer width beta/x at every
    # coupling up to the bound (the generic panels put them at 4.3e-7 beta).
    kernel = steady._overlap_kernel_batch
    first = []

    def spy(sd, beta, u, settings):
        first.append(float(np.min(u)))
        return kernel(sd, beta, u, settings)

    monkeypatch.setattr(steady, "_overlap_kernel_batch", spy)
    sys = spin_system()
    sd = LorentzDrude(1.0, 0.25)
    for beta in (1.0, 3.0):
        for x in (1.0, 1e3, 1e6, 1e9):
            first.clear()
            f_exact(sys, BathParams(beta=beta, lam=math.sqrt(x / (4.0 * beta))), sd, 1, 0)
            assert 0.0 < x * first[0] / beta < 1.0


def test_f_pair_index_validation():
    sys = spin_system()
    bath = BathParams(beta=1.0, lam=1.0)
    sd = LorentzDrude(1.0, 0.25)
    with pytest.raises(ValidationError):
        f_exact(sys, bath, sd, 0, 0)
    with pytest.raises(ValidationError):
        f_high_t(sys, bath, sd, 0, 5)
    # index arrays: a diagonal pair, an index out of range or unequal shapes
    with pytest.raises(ValidationError):
        f_series(sys, bath, sd, np.array([1, 0]), np.array([0, 0]))
    with pytest.raises(ValidationError):
        f_exact(sys, bath, sd, np.array([1, 0]), np.array([0, 2]))
    with pytest.raises(ValidationError):
        f_high_t(sys, bath, sd, np.array([1, 0]), np.array([0]))


def test_f_index_arrays_match_scalar_calls():
    # Under Natural the f values here span about 1e13, yet the shared exact
    # quadrature must hold every pair to the accuracy of its own quadrature.
    sys = random_system(np.random.default_rng(3), 3)
    bath = BathParams(beta=0.9, lam=1.4)
    sd = LorentzDrude(1.0, 0.25)
    l, l2 = np.nonzero(~np.eye(3, dtype=bool))
    for conv in (RENORM, NATURAL):
        for fn in (f_high_t, f_series):
            many = fn(sys, bath, sd, l, l2, conv=conv)
            one = [fn(sys, bath, sd, int(i), int(j), conv=conv) for i, j in zip(l, l2)]
            assert all(isinstance(v, float) for v in one)
            assert np.array_equal(many, one)
        many = f_exact(sys, bath, sd, l, l2, conv=conv).value
        one = [f_exact(sys, bath, sd, int(i), int(j), conv=conv).value for i, j in zip(l, l2)]
        assert all(isinstance(v, float) for v in one)
        assert np.max(np.abs(many / one - 1.0)) < 1e-13


def test_f_high_t_calls_dawson_at_most_twice(monkeypatch):
    # Both Dawson arguments of all 12 pairs of a dim-4 system go to dawson
    # together, in place of one scalar call per argument.
    from meanforce import steady

    shapes = []
    dawson = steady.dawson

    def counted(x):
        shapes.append(np.shape(x))
        return dawson(x)

    monkeypatch.setattr(steady, "dawson", counted)
    sys = random_system(np.random.default_rng(5), 4)
    res = steady_state(sys, BathParams(beta=0.8, lam=1.2), LorentzDrude(1.0, 0.25), HIGH_T)
    assert len(shapes) <= 2
    assert sum(math.prod(s) for s in shapes) == 24
    assert np.all(res.f_values[~np.eye(4, dtype=bool)] > 0)


def test_exact_steady_state_one_kernel_call_per_panel_batch(monkeypatch):
    # All pairs are one vector-valued integrand: K(u) is evaluated once per
    # batch of GK15 panels (the 10 initial panels, rungs at 0.1, 1 and 10
    # times the narrowest layer width, 0.018, from each end and 4 between
    # them, then the halves of every panel a round bisects, here 1 and 1) for
    # every pair together, and the pairs share the count.
    from meanforce import steady

    u_nodes = []
    kernel = steady._overlap_kernel_batch

    def counted(sd, beta, u, settings):
        u_nodes.append(len(u))
        return kernel(sd, beta, u, settings)

    monkeypatch.setattr(steady, "_overlap_kernel_batch", counted)
    sys = random_system(np.random.default_rng(11), 4)
    res = steady_state(sys, BathParams(beta=1.2, lam=1.3), LorentzDrude(1.0, 0.25), EXACT, NATURAL)
    evals = res.diagnostics["evaluations"]
    assert u_nodes == [150, 30, 30]
    assert sum(u_nodes) == evals


@pytest.mark.parametrize("system", ["spin", "dim4"])
def test_exact_batched_panels_match_the_per_panel_route(system, monkeypatch):
    # The nested K integrand is not pointwise in its u nodes (the inner
    # quadrature stops on the max norm over the whole batch), so batching the
    # outer panels moves f by rounding only; the panels and counts stay.
    from test_special import integrate_finite_per_panel

    from meanforce import special, spectral, steady

    if system == "spin":
        sys, bath = spin_system(), BathParams(beta=1.0, lam=math.sqrt(5.0))
    else:
        sys, bath = _seed101_multilevel()
    sd = LorentzDrude(1.0, 0.25)
    res = steady_state(sys, bath, sd, EXACT, NATURAL)
    for module in (special, spectral, steady):
        monkeypatch.setattr(module, "integrate_finite", integrate_finite_per_panel)
    ref = steady_state(sys, bath, sd, EXACT, NATURAL)
    off = ~np.eye(sys.dim, dtype=bool)
    assert np.max(np.abs(res.f_values[off] / ref.f_values[off] - 1.0)) <= 1e-13
    assert res.diagnostics["evaluations"] == ref.diagnostics["evaluations"]


def _seed101_multilevel():
    # The dim-4 benchmark system at seed 101 (Natural, beta ~ 2), where f spans
    # about 1e4.
    h = np.diag([0.39349043331629097, -0.2940865017681056, 0.19073628879730203, -0.1182418806840054])
    h = h.astype(complex)
    iu = np.triu_indices(4, 1)
    h[iu] = [
        0.17189813617877067 - 0.1815241878600888j, 0.24439695083657792 - 0.05263202847870598j,
        0.06773478806767405 + 0.24064911902067557j, -0.0013988140407961056 + 0.24999608660792927j,
        0.10522115994636423 - 0.22677854285523055j, 0.06068954354196208 + 0.24252170893482564j,
    ]
    h = h + np.triu(h, 1).conj().T
    a = np.diag([-1.5459470017568948, -0.5154158383335188, 0.48947948359772914, 1.453810129846433])
    return SystemSpec(h, a), BathParams(beta=2.007290670144433, lam=math.sqrt(2.0))


def test_exact_shared_tolerance_keeps_small_entries():
    # The max-norm stopping rule of the shared quadrature must not starve the
    # small entries.
    sys, bath = _seed101_multilevel()
    sd = LorentzDrude(1.0, 0.25)
    res = steady_state(sys, bath, sd, EXACT, NATURAL)
    f, p = res.f_values, res.populations
    off = ~np.eye(4, dtype=bool)
    assert f[off].max() / f[off].min() > 1e3
    for l, l2 in zip(*np.nonzero(off)):
        one = f_exact(sys, bath, sd, int(l), int(l2), conv=NATURAL).value
        assert abs(f[l, l2] / one - 1.0) < 1e-12
        assert abs(p[l] * f[l, l2] / (p[l2] * f[l2, l]) - 1.0) < 1e-12


def test_exact_error_estimate_per_entry(monkeypatch):
    # Each entry's estimate is its own normalized quadrature error times its
    # own bound e^{max(0, beta w)}, never above the shared max-norm bound that
    # every entry used to carry, and far below it for the smallest f.
    from meanforce import steady

    captured = []

    def spy(*args, **kwargs):
        captured.append(integrate_finite(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(steady, "integrate_finite", spy)
    sys, bath = _seed101_multilevel()
    sd = LorentzDrude(1.0, 0.25)
    res = steady_state(sys, bath, sd, EXACT, NATURAL)
    l, l2 = np.nonzero(~np.eye(4, dtype=bool))
    e = steady._effective_energies(sys, bath, NATURAL, sd)
    shift = np.maximum(bath.beta * (e[l] - e[l2]), 0.0)
    shared = captured[0].error_estimate * float(np.exp(np.max(shift)))
    err = res.diagnostics["f_error_estimates"][l, l2]
    assert np.all(err > 0.0)
    assert np.all(err <= shared)
    assert err[np.argmin(np.abs(res.f_values[l, l2]))] <= 0.1 * shared

    # A single pair keeps the estimate it always had.
    captured.clear()
    one = f_exact(sys, bath, sd, 0, 1, conv=NATURAL)
    old = captured[0].error_estimate * float(np.exp(max(bath.beta * (e[0] - e[1]), 0.0)))
    assert type(one.error_estimate) is float
    assert one.error_estimate == one.component_errors == old


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
    assert isinstance(res.state.psd_ok, bool)
    assert d["evaluations"] == 0  # a closed form


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


def test_natural_equals_renormalized_on_the_spin_boson_at_lambda2q_1e17():
    # Natural subtracts lambda^2 Q (a_l^2 - min a^2), which is 0 for sigma_z:
    # subtracting lambda^2 a_l^2 Q = 1e17 itself rounded the pseudo energies
    # away and gave p = 0.5.
    sys = spin_system()
    bath = BathParams(beta=1.5, lam=math.sqrt(1e17))
    sd = LorentzDrude(1.0, 0.25)
    a = zeroth_order_state(sys, bath, sd=sd).entries
    b = zeroth_order_state(sys, bath, conv=NATURAL, sd=sd).entries
    assert np.array_equal(a, b)
    assert a[0, 0].real == pytest.approx(0.18242552380635632, rel=1e-15)
    for method in (HIGH_T, SERIES):
        a = steady_state(sys, bath, sd, method=method)
        b = steady_state(sys, bath, sd, method=method, conv=NATURAL)
        assert np.array_equal(a.populations, b.populations)
        assert np.allclose(a.f_values, b.f_values, rtol=1e-14, atol=0.0)
        assert np.allclose(a.state.entries, b.state.entries, rtol=1e-14, atol=0.0)


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
