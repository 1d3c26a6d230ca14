import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanforce.errors import NumericsError, ValidationError
from meanforce import spectral
from meanforce.oracle import BathDiscretization
from meanforce.special import QuadratureSettings
from meanforce.spectral import (
    BathParams,
    DiscreteModes,
    LorentzDrude,
    OhmicHardCutoff,
    SpectralDensity,
    Tabulated,
    _g_batch,
    _mu_exp,
    overlap_kernel,
)
from meanforce.spinboson import SpinBosonParams, build_system
from meanforce.steady import CorrectionMethod, steady_state

# Frozen 25-digit quadrature of J(w)/w^2 * r(w; u, beta) for Lorentz-Drude,
# r in the symmetric cosh form. Keys are (Q, omega_c, beta, u).
KERNEL_REF = (
    ((1.0, 0.25, 1.0, 0.3), 0.20383945697506747),
    ((1.0, 0.25, 1.0, 0.5), 0.24183264828081942),
    ((1.0, 0.1, 1.0, 0.5), 0.24665905979856453),
    ((2.5, 0.6, 0.8, 0.2), 0.35590690759557448),
)

# Frozen Re G for Lorentz-Drude, oscillation-aware reference (plain quadrature
# on [0,4], smooth tail, quadosc for the cosine part). Keys (Q, omega_c, beta, tau).
RE_G_REF = (
    ((1.0, 0.5, 1.9, 0.3), 0.06579390812344721),
    ((1.0, 0.25, 1.0, 2.0), 3.4697751100362652),
)

def test_density_constructors_validate():
    with pytest.raises(ValidationError):
        LorentzDrude(-1.0, 0.25)
    with pytest.raises(ValidationError):
        LorentzDrude(1.0, 0.0)
    with pytest.raises(ValidationError):
        OhmicHardCutoff(1.0, -2.0)
    # Non-finite parameters are refused here, not later under another name.
    for make in (lambda: LorentzDrude(math.inf, 0.25), lambda: OhmicHardCutoff(math.inf, 1.0),
                 lambda: OhmicHardCutoff(1.0, math.inf),
                 lambda: Tabulated([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
                 lambda: Tabulated([0.0, 1.0, math.inf], [0.0, 1.0, 1.0])):
        with pytest.raises(ValidationError, match="finite"):
            make()
    with pytest.raises(ValidationError):
        DiscreteModes([])
    with pytest.raises(ValidationError):
        DiscreteModes([(0.5, -1.0)])
    # The oracle's bath is a DiscreteModes and shares its one mode check.
    for modes_type in (DiscreteModes, BathDiscretization):
        for bad in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0), (0.5, math.nan)):
            with pytest.raises(ValidationError, match="finite"):
                modes_type([(0.5, 1.0), bad])
    with pytest.raises(ValidationError):
        Tabulated([0.0, 1.0], [0.5, 0.0])  # J(0) != 0
    with pytest.raises(ValidationError):
        Tabulated([1.0, 0.5], [0.0, 0.0])  # not increasing
    with pytest.raises(ValidationError, match="zero on the whole grid"):
        Tabulated([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])  # Q = 0


def test_bath_params_validate():
    with pytest.raises(ValidationError):
        BathParams(beta=0.0, lam=1.0)
    with pytest.raises(ValidationError):
        BathParams(beta=1.0, lam=-0.1)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            BathParams(beta=beta, lam=1.0)


def test_j_of_omega_shapes():
    sd = LorentzDrude(1.0, 0.25)
    # peak of w*wc/(wc^2+w^2) is 1/2 at w = wc
    assert sd(0.25) == pytest.approx(1.0 / math.pi, rel=1e-14)
    arr = sd(np.array([0.1, 0.25, 1.0]))
    assert arr.shape == (3,)
    ohc = OhmicHardCutoff(2.0, 1.5)
    assert ohc(1.0) == pytest.approx(2.0, rel=1e-14)
    assert ohc(1.6) == 0.0


def test_reorganization_energy_closed_forms():
    assert LorentzDrude(1.7, 0.25).reorganization_energy() == 1.7
    assert OhmicHardCutoff(2.0, 1.5).reorganization_energy() == pytest.approx(3.0)
    dm = DiscreteModes([(0.5, 2.0), (0.3, 1.5)])
    assert dm.reorganization_energy() == pytest.approx(0.25 / 2.0 + 0.09 / 1.5)


def test_reorganization_energy_tabulated_linear_interpolant():
    # J = w on [0, 2]: the interpolant is exact, Q = int_0^2 dw = 2.
    sd = Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert sd.reorganization_energy() == pytest.approx(2.0, rel=1e-14)
    # Piecewise check against dense trapezoid evaluation of J/w.
    sd2 = Tabulated([0.5, 1.0, 1.75], [0.2, 0.9, 0.3])
    w = np.linspace(0.5, 1.75, 400001)
    ref = np.trapezoid(np.interp(w, sd2.omega, sd2.j) / w, w)
    assert sd2.reorganization_energy() == pytest.approx(float(ref), rel=1e-8)


def test_tabulated_equality_is_identity():
    # Its grids are arrays: equal content must not make == raise or compare
    # the arrays, and the density must hash, as the ME route's G memo assumes.
    a = Tabulated([0.5, 1.0, 1.75], [0.2, 0.9, 0.3])
    b = Tabulated([0.5, 1.0, 1.75], [0.2, 0.9, 0.3])
    assert a != b and not (a == b)
    assert a == a and b == b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert LorentzDrude(1.0, 0.25) == LorentzDrude(1.0, 0.25)
    assert hash(LorentzDrude(1.0, 0.25)) == hash(LorentzDrude(1.0, 0.25))
    assert LorentzDrude(1.0, 0.25) != LorentzDrude(1.0, 0.5)


def test_cutoff_scale_per_family():
    assert LorentzDrude(1.0, 0.3).cutoff == 0.3
    assert OhmicHardCutoff(1.0, 2.5).cutoff == 2.5
    assert DiscreteModes([(0.1, 0.5), (0.1, 2.0)]).cutoff == 2.0
    assert Tabulated([0.5, 3.0], [1.0, 1.0]).cutoff == 3.0


class _Ramp(SpectralDensity):
    """J = 2w below 1.5: OhmicHardCutoff(2.0, 1.5), given only by the protocol."""

    cutoff = 1.5

    def __call__(self, w):
        return np.where(w < 1.5, 2.0 * w, 0.0)

    def reorganization_energy(self):
        return 3.0


def test_new_density_needs_only_the_protocol():
    ramp, ohmic = _Ramp(), OhmicHardCutoff(2.0, 1.5)
    beta = 0.9
    for u in (0.2, 0.45):
        assert overlap_kernel(ramp, beta, u) == overlap_kernel(ohmic, beta, u)
    for tau in (0.3, 2.0):
        assert _g_at(ramp, beta, tau) == _g_at(ohmic, beta, tau)
    system = build_system(SpinBosonParams(1.0, 0.7))
    bath = BathParams(beta, 0.8)
    exact = CorrectionMethod.EXACT_QUADRATURE
    a = steady_state(system, bath, ramp, exact).state.entries
    b = steady_state(system, bath, ohmic, exact).state.entries
    assert np.array_equal(a, b)


def test_overlap_kernel_frozen_reference():
    for (q, wc, beta, u), ref in KERNEL_REF:
        val = overlap_kernel(LorentzDrude(q, wc), beta, u)
        assert val == pytest.approx(ref, rel=1e-9)


def _kernel_mpmath(q, wc, beta, u, points=None):
    """K(u) of Lorentz-Drude by mpmath.quad of its w-integral, which does not
    oscillate and decays as w^-3, split at [0, wc, 10 wc, inf] or at the given
    finite points. Evaluate inside mpmath.workdps."""
    q, wc, beta, u = (mpmath.mpf(v) for v in (q, wc, beta, u))

    def integrand(w):
        j = 2 * q / mpmath.pi * wc * w / (wc**2 + w**2)
        r = -mpmath.expm1(-w * u) * mpmath.expm1(w * (u - beta)) / mpmath.expm1(-w * beta)
        return j / w**2 * r

    if points is None:
        return mpmath.quad(integrand, [0, wc, 10 * wc, mpmath.inf])
    return mpmath.quad(integrand, [0, *(mpmath.mpf(float(p)) for p in points), mpmath.inf])


def _kernel_matsubara(q, wc, beta, u):
    """K(u) of Lorentz-Drude from its Matsubara series, in closed form.

    With nu_n = c n, c = 2 pi/beta, r(w; u) = (2w/beta) sum_{n>=1}
    (1 - cos nu_n u)/(w^2 + nu_n^2), and int J/(w (w^2 + nu^2)) = Q/(nu (nu +
    w_c)), so K = (4Q/(beta c^2)) sum_{n>=1} (1 - cos n theta)/(n (n + a)),
    theta = c u, a = w_c/c: digamma for the constant part and a Lerch
    transcendent on the unit circle for the cosine part. No quadrature; it
    agrees with _kernel_mpmath to 1e-25. Evaluate inside mpmath.workdps."""
    q, wc, beta, u = (mpmath.mpf(v) for v in (q, wc, beta, u))
    c = 2 * mpmath.pi / beta
    a, theta = wc / c, c * u
    z = mpmath.expj(theta)
    constant = mpmath.digamma(1 + a) + mpmath.euler
    cosine = -mpmath.log(2 * mpmath.sin(theta / 2)) - mpmath.re(z * mpmath.lerchphi(z, 1, 1 + a))
    return 4 * q / (beta * c**2 * a) * (constant - cosine)


@pytest.mark.parametrize("wc, beta", [(0.05, 0.5), (0.25, 1.0), (2.0, 12.0)])
def test_lorentz_drude_kernel_against_mpmath(wc, beta):
    u = np.array([0.1, 0.37, 0.5]) * beta
    k = LorentzDrude(1.0, wc).kernel(beta, u, QuadratureSettings())
    with mpmath.workdps(30):
        ref = np.array([float(_kernel_mpmath(1.0, wc, beta, ui)) for ui in u])
    assert np.max(np.abs(k / ref - 1.0)) <= 1e-13


def test_lorentz_drude_kernel_near_the_ends_against_mpmath():
    # K's w-integrand switches on at w ~ 1/u, near t = 1 of the map w =
    # omega_c t/(1 - t) for small u. In a batch with u = beta/2 the generic
    # first panels left K(1e-6 beta) 7.8e-10 off; panels in decades of 1 - t
    # down to omega_c u/10 give 1.0e-14.
    beta, wc = 1.0, 0.25
    u = np.array([1e-6, 0.5, 1.0 - 1e-5]) * beta
    k = LorentzDrude(1.0, wc).kernel(beta, u, QuadratureSettings())
    with mpmath.workdps(30):
        ref = float(_kernel_mpmath(1.0, wc, beta, u[0], [1.0 / beta, wc, 1.0 / u[0]]))
    assert abs(k[0] / ref - 1.0) <= 1e-13


def test_lorentz_drude_kernel_refused_past_its_measured_range():
    # Against 30 digits at beta = 1, u = 0.5, K(u) holds 1e-10 relative up to
    # about omega_c beta = 1e10 and drifts past it (4.8e-10 at 1e12, 0.64 at
    # 1e20 when it was not refused), so past 1e10 it raises instead.
    k = overlap_kernel(LorentzDrude(1.0, 1e9), 1.0, 0.5)
    with mpmath.workdps(30):
        ref = float(_kernel_mpmath(1.0, 1e9, 1.0, 0.5, np.geomspace(1e-6, 1e15, 43)))
    assert abs(k / ref - 1.0) <= 1e-10
    for wc in (1e12, 1e50, 1e146):
        with pytest.raises(NumericsError, match="refused at omega_c beta"):
            overlap_kernel(LorentzDrude(1.0, wc), 1.0, 0.5)
    # The bound is on omega_c beta, not on omega_c alone.
    assert overlap_kernel(LorentzDrude(1.0, 4e9), 2.0, 1.0) > 0.0
    with pytest.raises(NumericsError):
        overlap_kernel(LorentzDrude(1.0, 6e9), 2.0, 1.0)


def test_lorentz_drude_kernel_parabola_limit_at_tiny_cutoff():
    # As omega_c -> 0, K(u) -> Q u (1 - u/beta), the high-temperature parabola.
    # The mapped weight has no omega_c^2 or w^2, so this holds down to
    # omega_c = 1e-300, where the nodes' w are still normal doubles.
    beta = 1.0
    u = np.array([0.1, 0.37, 0.5, 0.9])
    for wc in (1e-20, 1e-160, 1e-200, 1e-300):
        k = LorentzDrude(1.0, wc).kernel(beta, u, QuadratureSettings())
        assert np.max(np.abs(k / (u * (1.0 - u / beta)) - 1.0)) <= 1e-14, wc


def test_overlap_kernel_endpoints_and_symmetry():
    sd = LorentzDrude(1.0, 0.25)
    beta = 1.3
    assert overlap_kernel(sd, beta, 0.0) == 0.0
    assert overlap_kernel(sd, beta, beta) == 0.0
    for u in (0.1, 0.4, 0.65):
        a = overlap_kernel(sd, beta, u)
        b = overlap_kernel(sd, beta, beta - u)
        assert a == pytest.approx(b, rel=1e-12)
        assert a > 0.0
    with pytest.raises(ValidationError):
        overlap_kernel(sd, beta, -0.1)
    with pytest.raises(ValidationError):
        overlap_kernel(sd, beta, beta + 0.1)


def test_overlap_kernel_single_mode_closed_form():
    # One mode: K(u) = g^2/w^2 * (cosh(w b/2) - cosh(w(u - b/2)))/sinh(w b/2).
    g, w, beta = 0.8, 1.7, 0.9
    sd = DiscreteModes([(g, w)])
    for u in (0.2, 0.45, 0.7):
        ref = (g / w) ** 2 * (
            (math.cosh(w * beta / 2) - math.cosh(w * (u - beta / 2)))
            / math.sinh(w * beta / 2)
        )
        assert overlap_kernel(sd, beta, u) == pytest.approx(ref, rel=1e-13)


def test_overlap_kernel_parabola_limit():
    # The kernel approaches u(1-u/beta)Q as omega_c*beta shrinks; the error
    # contracts with the cutoff (worst near the interval ends).
    beta = 1.0
    devs = []
    for wc in (0.1, 0.02):
        sd = LorentzDrude(1.0, wc)
        dev = max(
            abs(overlap_kernel(sd, beta, u) / (u * (1.0 - u / beta)) - 1.0)
            for u in (0.2, 0.5, 0.8)
        )
        devs.append(dev)
    assert devs[0] < 1.5e-2
    assert devs[1] < 3e-3
    assert devs[1] < devs[0]


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_overlap_kernel_mode_bound(w, beta, frac):
    # Per-mode bound: r(w; u, beta) <= tanh(w*beta/4), attained at u = beta/2.
    u = frac * beta
    sd = DiscreteModes([(1.0, w)])
    bound = math.tanh(w * beta / 4.0) / w**2
    assert overlap_kernel(sd, beta, u) <= bound * (1.0 + 1e-12)


def _mu_exp_select_form(kappa, tau):
    # mu as both forms on the whole block, then selected: the reference for
    # the in-place _mu_exp.
    kappa = np.asarray(kappa, dtype=float)
    tau = np.asarray(tau, dtype=float)
    kt = kappa[:, None] * tau[None, :]
    t2 = np.broadcast_to(tau[None, :] ** 2, kt.shape)
    series = np.ones_like(kt)
    for j in range(26, 2, -1):
        series = 1.0 - kt * series / j
    k = np.broadcast_to(kappa[:, None], kt.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.expm1(-kt) + kt) / k / k
    return np.where(kt > 0.5, direct, t2 * series / 2.0)


def test_mu_exp_bit_identical_to_select_form():
    # kappa = 0, tau = 0, and kt at 0.5 exactly and one part in 1e12 away.
    kappa = np.concatenate([[0.0, 1.0, 0.25], 2.0 * math.pi * np.arange(1.0, 3001.0, 37.0)])
    tau = np.concatenate([
        [0.0],
        0.5 * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
        np.geomspace(1e-9, 60.0, 60),
    ])
    kt = kappa[:, None] * tau[None, :]
    assert np.any(kt == 0.5) and np.any(kt == 0.5 * (1.0 - 1e-12))
    got = _mu_exp(kappa, tau)
    assert np.array_equal(got, _mu_exp_select_form(kappa, tau))
    assert np.all(got[0] == tau**2 / 2.0) and np.all(got[:, 0] == 0.0)


def test_mu_exp_at_kappa_zero_is_half_tau_squared_bitwise():
    # Lorentz-Drude G asks for kappa = 0 alone whenever beta w_c < pi; that
    # call skips the series, whose every Horner step gives exactly 1 there.
    tau = np.concatenate([[0.0, 5e-324, 1e-310, 1e-300], np.linspace(0.0, 1e3, 10001),
                          np.geomspace(1e-300, 1e3, 601)])
    got = _mu_exp(np.array([0.0]), tau)
    assert got.shape == (1, len(tau))
    assert np.array_equal(got[0], tau**2 / 2.0)
    assert np.array_equal(got, _mu_exp_select_form([0.0], tau))


def _g_at(sd, beta, tau):
    """G at one tau, through _g_batch, the one G boundary."""
    return complex(_g_batch(sd, beta, np.array([tau]), QuadratureSettings())[0])


def test_g_zero_and_validation():
    sd = LorentzDrude(1.0, 0.5)
    assert _g_at(sd, 1.9, 0.0) == 0j
    with pytest.raises(ValidationError):  # beta is checked where it is made
        BathParams(0.0, 1.0)


def test_g_real_part_frozen_reference():
    for (q, wc, beta, tau), ref in RE_G_REF:
        g = _g_at(LorentzDrude(q, wc), beta, tau)
        assert g.real == pytest.approx(ref, rel=1e-11)


def _g_closed_form(q, wc, beta, tau):
    """Re G and Im G of Lorentz-Drude from the closed-form Matsubara sums.

    With a = beta w_c/2pi, c = 2pi/beta and z = e^{-c tau}, the Matsubara
    sum splits into tau*S1 - S2 + T: S1 and S2 are the affine suffix sums in
    closed form, and T = sum_k z^k/(k(k^2 - a^2))/c^3 is a log plus two
    Lerch transcendents by partial fractions. spectral evaluates the same
    sum, by the series of these transcendents; _g_quadrature shares nothing
    with it. Evaluate inside mpmath.workdps.
    """
    q, wc, beta, tau = (mpmath.mpf(v) for v in (q, wc, beta, tau))
    a = beta * wc / (2 * mpmath.pi)
    c = 2 * mpmath.pi / beta
    z = mpmath.exp(-c * tau)
    mu = (mpmath.expm1(-wc * tau) + wc * tau) / wc**2
    s1 = (1 / (2 * a**2) - mpmath.pi * mpmath.cot(mpmath.pi * a) / (2 * a)) / c**2
    s2 = -(2 * mpmath.euler + mpmath.digamma(1 - a) + mpmath.digamma(1 + a)) / (2 * a**2 * c**3)
    t = (
        mpmath.log(1 - z)
        + z * mpmath.lerchphi(z, 1, 1 - a) / 2
        + z * mpmath.lerchphi(z, 1, 1 + a) / 2
    ) / (a**2 * c**3)
    re = q * wc * mpmath.cot(beta * wc / 2) * mu + (4 * q * wc / beta) * (tau * s1 - s2 + t)
    return re, -q * wc * mu


G_REF_TAUS = (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.3, 2.0, 16.0)
# Relative error of Re G against _g_closed_form at 50 digits, as measured for
# Q = 1, w_c = 0.25 and beta in {1, 1.9}: (largest tau of the band, bound).
RE_G_BANDS = ((1e-3, 2.7e-10), (0.01, 1.6e-11), (16.0, 7.7e-13))
# Im G is -Q w_c mu(w_c, tau); the largest error, as measured at the same
# points and at beta w_c = 2 pi.
IM_G_BAND = 1.2e-16


def _g_relative_errors(beta, taus):
    g = _g_batch(LorentzDrude(1.0, 0.25), beta, np.array(taus), QuadratureSettings())
    with mpmath.workdps(50):
        refs = [_g_closed_form(1.0, 0.25, beta, tau) for tau in taus]
        return [
            (float(abs(v.real / re - 1)), float(abs(v.imag / im - 1)))
            for v, (re, im) in zip(g, refs)
        ]


@pytest.mark.parametrize("beta", [1.0, 1.9])
def test_g_against_mpmath_closed_form(beta):
    for tau, (re_err, im_err) in zip(G_REF_TAUS, _g_relative_errors(beta, G_REF_TAUS)):
        band = next(bound for edge, bound in RE_G_BANDS if tau <= edge)
        assert re_err <= band, (tau, re_err)
        assert im_err <= IM_G_BAND, (tau, im_err)


def test_g_imag_part_on_nudge_path_against_mpmath():
    # beta w_c = 2 pi puts the cot pole on nu_1; Im G does not depend on beta.
    beta = 2.0 * math.pi / 0.25
    g = _g_batch(LorentzDrude(1.0, 0.25), beta, np.array(G_REF_TAUS), QuadratureSettings())
    with mpmath.workdps(50):
        for tau, v in zip(G_REF_TAUS, g):
            x = mpmath.mpf(0.25) * tau
            im = -(mpmath.expm1(-x) + x) / 0.25
            assert float(abs(v.imag / im - 1)) <= IM_G_BAND


def test_g_real_part_at_resonance_against_mpmath():
    # beta w_c = 2 pi: the cot pole and the nu_1 Matsubara term cancel, which
    # spectral does analytically. (50 digits leave the reference about 1e-14
    # at tau = 1e-6, as the cancellation is of order 1/(beta w_c/2pi - 1).)
    beta = 2.0 * math.pi / 0.25
    for tau, (re_err, _) in zip(G_REF_TAUS, _g_relative_errors(beta, G_REF_TAUS)):
        band = next(bound for edge, bound in RE_G_BANDS if tau <= edge)
        assert re_err <= band, (tau, re_err)


def _g_quadrature(q, wc, beta, tau):
    """G of Lorentz-Drude by mpmath.quad of its w-integral,
    int J/w^2 (coth(beta w/2)(1 - cos w tau) - i(w tau - sin w tau)) dw.

    Up to w_end, one period of cos w tau per piece; past it, the smooth part
    on the mapped half-line w = w_end + t/(1 - t), and the oscillating parts
    -(coth -+ 1) e^{+-i w tau}/2 on rays turned off the axis, w = w_end +- i y,
    where they decay as e^{-y tau} (every pole of the integrand is on the
    imaginary axis). Evaluate inside mpmath.workdps.
    """
    q, wc, beta, tau = (mpmath.mpf(v) for v in (q, wc, beta, tau))

    def j_over_w2(w):
        return 2 * q / mpmath.pi * wc / (w * (wc**2 + w**2))

    def coth(w):
        return 1 / mpmath.tanh(beta * w / 2)

    period = 2 * mpmath.pi / tau
    w_end = 2 * max(wc, 2 * mpmath.pi / beta, period)
    cuts = {mpmath.mpf(0), wc, 2 * mpmath.pi / beta, w_end}
    cuts |= {j * period for j in range(1, int(w_end / period) + 1)}
    head = mpmath.quad(
        lambda w: j_over_w2(w) * (
            coth(w) * 2 * mpmath.sin(w * tau / 2) ** 2 - 1j * (w * tau - mpmath.sin(w * tau))
        ),
        sorted(cuts),
    )

    def smooth(t):
        w = w_end + t / (1 - t)
        return j_over_w2(w) * (coth(w) - 1j * w * tau) / (1 - t) ** 2

    def ray(sign):
        def f(y):
            w = w_end + sign * 1j * y
            return j_over_w2(w) * (coth(w) - sign) * mpmath.exp(sign * 1j * w * tau) * sign * 1j

        return -mpmath.quad(f, [0, mpmath.inf]) / 2

    return head + mpmath.quad(smooth, [0, 1]) + ray(1) + ray(-1)


# The largest relative error of Re G and of Im G against _g_quadrature, as measured.
G_QUADRATURE_BAND = 7.1e-16


@pytest.mark.parametrize(
    "wc, beta",
    [(0.25, 2.0 * math.pi / 0.25), (0.25, 2.0 * math.pi / 0.25 * (1.0 + 1e-6)), (0.5, 20.0), (2.0, 50.0)],
    ids=["resonance", "near-resonance", "a1.6", "a15.9"],
)
def test_g_against_mpmath_quadrature(wc, beta):
    taus = (1e-3, 0.3, 2.0, 16.0)
    g = _g_batch(LorentzDrude(1.0, wc), beta, np.array(taus), QuadratureSettings())
    with mpmath.workdps(30):
        for tau, v in zip(taus, g):
            ref = _g_quadrature(1.0, wc, beta, tau)
            assert float(abs(v.real / ref.real - 1)) <= G_QUADRATURE_BAND, tau
            assert float(abs(v.imag / ref.imag - 1)) <= G_QUADRATURE_BAND, tau


def test_g_refused_past_its_term_budget():
    # a = beta w_c/2 pi sets the 40 a terms of the exponential sum; past
    # a = 1e4 (here 1.6e4) G is refused with NumericsError, not summed.
    with pytest.raises(NumericsError, match="past 10000"):
        _g_at(LorentzDrude(1.0, 1e3), 100.0, 1.0)


def test_g_refused_where_its_matsubara_frequency_cubed_overflows():
    # G divides by c^3, c = 2 pi/beta: finite at beta = 1.2e-102 (c = 5.2e102),
    # refused with NumericsError naming beta at 1.1e-102 (c = 5.7e102), not an
    # OverflowError from the power.
    assert np.isfinite(_g_at(LorentzDrude(1.0, 0.25), 1.2e-102, 1.0))
    with pytest.raises(NumericsError, match="beta = 1.1e-102 is too small"):
        _g_at(LorentzDrude(1.0, 0.25), 1.1e-102, 1.0)


def test_g_not_finite_is_refused_without_warnings():
    # Re G overflows at tau = 1e308: G is refused, and the overflow is silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="not finite"):
            _g_at(LorentzDrude(1.0, 0.25), 1.0, 1e308)


@pytest.mark.parametrize("wc, beta", [(0.25, 1.0), (1.0, 2 * math.pi), (3.0, 7.0), (50.0, 3.0)])
def test_g_same_bits_from_a_cold_and_a_warm_setup(wc, beta):
    # The tau-independent set-up is built once per (omega_c, beta) and kept;
    # G on a tau array, and at a single tau, has the same bits either way.
    tau = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 257)])
    sd = LorentzDrude(1.3, wc)
    spectral._lorentz_drude_g_setup.cache_clear()
    cold = sd.g(beta, tau, QuadratureSettings())
    one_cold = sd.g(beta, tau[100:101], QuadratureSettings())
    spectral._lorentz_drude_g_setup.cache_clear()
    one_first = sd.g(beta, tau[100:101], QuadratureSettings())
    warm = sd.g(beta, tau, QuadratureSettings())
    assert spectral._lorentz_drude_g_setup.cache_info().hits >= 1
    assert np.array_equal(cold, warm)
    assert np.array_equal(one_cold, one_first)
    c = spectral._lorentz_drude_g_setup(wc, beta)
    assert not any(v.flags.writeable for v in c if isinstance(v, np.ndarray))


def test_g_imag_part_closed_form():
    # Im G(tau) = -Q tau + (Q/omega_c)(1 - e^{-omega_c tau}) for Lorentz-Drude.
    q, wc = 1.0, 0.25
    sd = LorentzDrude(q, wc)
    for beta in (0.7, 1.9):
        for tau in (0.05, 1.0, 7.0, 40.0):
            ref = -q * tau + (q / wc) * (1.0 - math.exp(-wc * tau))
            assert _g_at(sd, beta, tau).imag == pytest.approx(ref, rel=1e-12)


def test_g_real_part_monotone_small_tau():
    # The small-tau region is where a tail defect would show first; Re G must
    # increase from exactly 0.
    sd = LorentzDrude(1.0, 0.5)
    taus = np.linspace(0.0, 0.02, 9)
    vals = [_g_at(sd, 1.9, float(t)).real for t in taus]
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)


def test_g_matches_direct_integral_for_compact_support():
    # For a hard-cutoff density G comes from the direct w-integral; check the
    # independent double-integral route int_0^tau (tau - s) c_B(s) ds, with
    # c_B(s) = int J (coth(w beta/2) cos(ws) - i sin(ws)) dw by Gauss-Legendre
    # on the support [0, 1.5].
    sd = OhmicHardCutoff(1.0, 1.5)
    beta, tau = 0.9, 1.1
    x, wx = np.polynomial.legendre.leggauss(64)
    w = 0.75 * (x + 1.0)
    s_grid = np.linspace(0.0, tau, 3001)
    ws = np.outer(s_grid, w)
    cb = (np.cos(ws) / np.tanh(0.5 * beta * w) - 1j * np.sin(ws)) @ (0.75 * wx * sd(w))
    ref = np.trapezoid((tau - s_grid) * cb, s_grid)
    g = _g_at(sd, beta, tau)
    assert g.real == pytest.approx(ref.real, rel=2e-6)
    assert g.imag == pytest.approx(ref.imag, rel=2e-6)


def test_g_table_memory_stays_small():
    # A 2049-node table never holds a poles x nodes array.
    sd = LorentzDrude(1.0, 0.25)
    grid = 16.0 * np.linspace(0.0, 1.0, 2049) ** 2
    tracemalloc.start()
    try:
        _g_batch(sd, 1.0, grid, QuadratureSettings())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_tabulated_from_file(tmp_path):
    p = tmp_path / "j.txt"
    p.write_text("# freq  J\n0.0 0.0\n1.0 0.3\n2.0 0.4\n3.0 0.2\n4.0 0.0\n")
    sd = Tabulated.from_file(p)
    assert sd.cutoff == 4.0
    assert sd(1.5) == pytest.approx(0.35)
    assert sd(5.0) == 0.0
    q = sd.reorganization_energy()
    assert 0.0 < q < 1.0
