import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanforce.errors import ValidationError
from meanforce.special import QuadratureSettings
from meanforce.spectral import (
    BathParams,
    DiscreteModes,
    LorentzDrude,
    OhmicHardCutoff,
    SpectralDensity,
    Tabulated,
    _g_batch,
    _matsubara_coefficients,
    _matsubara_sum,
    _mu_exp,
    _tail_r,
    bath_correlation,
    g_double_integral,
    j_of_omega,
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

# Frozen R(x) = int_x^inf (e^-t - 1 + t)/t^3 dt; 0.35 is the series switch.
TAIL_R_REF = (
    (0.01, 2.7656418466509221),
    (0.1, 1.6291457908278761),
    (0.3, 1.1115758507112706),
    (0.34, 1.0551600434052406),
    (0.36, 1.0296417905614826),
    (0.5, 0.88641745710071383),
    (1.0, 0.60969196719776014),
    (3.0, 0.27877007183955808),
    (10.0, 0.095000035487625531),
    (100.0, 0.00995),
    (2976.3, 0.00033593119180935135),
)


def test_density_constructors_validate():
    with pytest.raises(ValidationError):
        LorentzDrude(-1.0, 0.25)
    with pytest.raises(ValidationError):
        LorentzDrude(1.0, 0.0)
    with pytest.raises(ValidationError):
        OhmicHardCutoff(1.0, -2.0)
    with pytest.raises(ValidationError):
        DiscreteModes([])
    with pytest.raises(ValidationError):
        DiscreteModes([(0.5, -1.0)])
    with pytest.raises(ValidationError):
        Tabulated([0.0, 1.0], [0.5, 0.0])  # J(0) != 0
    with pytest.raises(ValidationError):
        Tabulated([1.0, 0.5], [0.0, 0.0])  # not increasing


def test_bath_params_validate():
    with pytest.raises(ValidationError):
        BathParams(beta=0.0, lam=1.0)
    with pytest.raises(ValidationError):
        BathParams(beta=1.0, lam=-0.1)


def test_j_of_omega_shapes():
    sd = LorentzDrude(1.0, 0.25)
    # peak of w*wc/(wc^2+w^2) is 1/2 at w = wc
    assert j_of_omega(sd, 0.25) == pytest.approx(1.0 / math.pi, rel=1e-14)
    arr = j_of_omega(sd, np.array([0.1, 0.25, 1.0]))
    assert arr.shape == (3,)
    ohc = OhmicHardCutoff(2.0, 1.5)
    assert j_of_omega(ohc, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert j_of_omega(ohc, 1.6) == 0.0


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
        assert g_double_integral(ramp, beta, tau) == g_double_integral(ohmic, beta, tau)
    for s in (0.0, 1.3):
        assert bath_correlation(ramp, beta, s) == bath_correlation(ohmic, beta, s)
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


def test_tail_r_frozen_reference():
    for x, ref in TAIL_R_REF:
        assert float(_tail_r(np.array([x]))[0]) == pytest.approx(ref, rel=5e-13)


def test_g_zero_and_validation():
    sd = LorentzDrude(1.0, 0.5)
    assert g_double_integral(sd, 1.9, 0.0) == 0j
    with pytest.raises(ValidationError):
        g_double_integral(sd, 1.0, -0.5)
    with pytest.raises(ValidationError):
        g_double_integral(sd, 0.0, 1.0)


def test_g_real_part_frozen_reference():
    for (q, wc, beta, tau), ref in RE_G_REF:
        g = g_double_integral(LorentzDrude(q, wc), beta, tau)
        assert g.real == pytest.approx(ref, rel=1e-11)


def test_g_imag_part_closed_form():
    # Im G(tau) = -Q tau + (Q/omega_c)(1 - e^{-omega_c tau}) for Lorentz-Drude.
    q, wc = 1.0, 0.25
    sd = LorentzDrude(q, wc)
    for beta in (0.7, 1.9):
        for tau in (0.05, 1.0, 7.0, 40.0):
            ref = -q * tau + (q / wc) * (1.0 - math.exp(-wc * tau))
            assert g_double_integral(sd, beta, tau).imag == pytest.approx(ref, rel=1e-12)


def test_g_real_part_monotone_small_tau():
    # The small-tau region is where a tail defect would show first; Re G must
    # increase from exactly 0.
    sd = LorentzDrude(1.0, 0.5)
    taus = np.linspace(0.0, 0.02, 9)
    vals = [g_double_integral(sd, 1.9, float(t)).real for t in taus]
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)


def test_g_matches_direct_integral_for_compact_support():
    # For a hard-cutoff density G comes from the direct w-integral; check the
    # independent double-integral route int_0^tau (tau - s) c_B(s) ds.
    sd = OhmicHardCutoff(1.0, 1.5)
    beta, tau = 0.9, 1.1
    s_grid = np.linspace(0.0, tau, 3001)
    cb = np.array([bath_correlation(sd, beta, float(s)) for s in s_grid])
    ref = np.trapezoid((tau - s_grid) * cb, s_grid)
    g = g_double_integral(sd, beta, tau)
    assert g.real == pytest.approx(ref.real, rel=2e-6)
    assert g.imag == pytest.approx(ref.imag, rel=2e-6)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.9, 2.0 * math.pi / 0.25])
def test_matsubara_affine_split_matches_full_sum(beta):
    # The terms with nu_k tau > 40 are summed in closed form; the last beta
    # sits on a Matsubara frequency and takes the nudge path.
    _, c_mats, nu, _ = _matsubara_coefficients(LorentzDrude(1.0, 0.25), beta)
    edge = 40.0 / nu[[0, 9, 99, 999, 2999]]
    tau = np.concatenate([
        [0.0, 1e-7, 3000.0],
        edge * (1.0 - 1e-9),
        edge * (1.0 + 1e-9),
        np.geomspace(1e-4, 60.0, 41),
    ])
    tau = np.random.default_rng(7).permutation(tau)
    got = _matsubara_sum(c_mats, nu, tau)
    ref = c_mats @ _mu_exp(nu, tau)
    assert got[tau == 0.0] == 0.0
    nz = ref != 0.0
    assert np.max(np.abs(got[nz] / ref[nz] - 1.0)) <= 1e-13


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


def test_bath_correlation_discrete_modes_exact_sum():
    dm = DiscreteModes([(0.5, 2.0), (0.3, 0.7)])
    beta, s = 1.2, 0.8
    ref = 0j
    for g, w in dm.modes:
        ref += g**2 * (
            math.cos(w * s) / math.tanh(0.5 * beta * w) - 1j * math.sin(w * s)
        )
    assert bath_correlation(dm, beta, s) == pytest.approx(ref, rel=1e-14)


def test_bath_correlation_lorentz_drude_frozen():
    # Matsubara representation against a frozen high-precision sum.
    val = bath_correlation(LorentzDrude(1.0, 0.25), 1.0, 1.3)
    assert val.real == pytest.approx(1.4375657345685738, rel=1e-11)
    assert val.imag == pytest.approx(-0.18063183841051805, rel=1e-11)


def test_bath_correlation_lorentz_drude_diverges_at_zero():
    # J coth falls off only as 1/w, so Re c_B(0) has no finite value.
    val = bath_correlation(LorentzDrude(1.0, 0.25), 1.0, 0.0)
    assert math.isinf(val.real) and val.real > 0
    assert val.imag == 0.0


def test_bath_correlation_hard_cutoff_at_zero_frozen():
    # Compact support keeps c_B(0) finite: frozen int_0^1.5 2w coth(0.45w) dw.
    val = bath_correlation(OhmicHardCutoff(2.0, 1.5), 0.9, 0.0)
    assert val.real == pytest.approx(6.9981998656211577, rel=1e-8)
    assert val.imag == 0.0


def test_tabulated_from_file(tmp_path):
    p = tmp_path / "j.txt"
    p.write_text("# freq  J\n0.0 0.0\n1.0 0.3\n2.0 0.4\n3.0 0.2\n4.0 0.0\n")
    sd = Tabulated.from_file(p)
    assert sd.cutoff == 4.0
    assert j_of_omega(sd, 1.5) == pytest.approx(0.35)
    assert j_of_omega(sd, 5.0) == 0.0
    q = sd.reorganization_energy()
    assert 0.0 < q < 1.0
