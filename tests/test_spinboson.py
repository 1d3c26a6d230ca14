import math

import numpy as np
import pytest

from meanforce.errors import ValidationError
from meanforce.linalg import DensityMatrix
from meanforce.spectral import BathParams, LorentzDrude
from meanforce.spinboson import SpinBosonParams, SpinObservables, build_system, observables
from meanforce.steady import CorrectionMethod, f_exact, steady_state


def test_params_validation():
    with pytest.raises(ValidationError):
        SpinBosonParams(epsilon=1.0, delta=0.0)
    with pytest.raises(ValidationError):
        SpinBosonParams(epsilon=math.nan, delta=0.5)
    p = SpinBosonParams(epsilon=3.0, delta=4.0)
    assert p.omega_s == pytest.approx(5.0)


def test_build_system_structure():
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    sys = build_system(p)
    assert sys.dim == 2
    # ascending eigenvalues: index 0 is sigma_z = -1
    assert np.allclose(sys.a_eigenvalues, [-1.0, 1.0])
    assert np.allclose(sys.pseudo_energies, [-0.5, 0.5])
    assert sys.pseudo_energies[1] - sys.pseudo_energies[0] == pytest.approx(1.0)
    assert abs(sys.h_elements[0, 1]) == pytest.approx(0.35)


def test_energy_eigenvector_convention():
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    h = build_system(p).h_s.entries
    from meanforce.spinboson import _energy_eigenvectors

    e, g = _energy_eigenvectors(p)
    assert e @ h @ e == pytest.approx(p.omega_s / 2.0, rel=1e-14)
    assert g @ h @ g == pytest.approx(-p.omega_s / 2.0, rel=1e-14)
    assert abs(e @ g) < 1e-15
    assert np.linalg.norm(e) == pytest.approx(1.0)


def test_c_ss_matches_population_weighted_f():
    # The upper-triangle coherence reduces to -(delta/2) p_+ f_{+,-} after the
    # detailed-balance identity collapses the two terms.
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    sys = build_system(p)
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    sd = LorentzDrude(1.0, 0.25)
    res = steady_state(sys, bath, sd, method=CorrectionMethod.EXACT_QUADRATURE)
    obs = observables(res.state, p)
    expected = -(p.delta / 2.0) * res.populations[1] * f_exact(sys, bath, sd, 1, 0).value
    assert obs.c_ss.real == pytest.approx(expected, rel=1e-10)
    assert abs(obs.c_ss.imag) < 1e-14


def test_observables_populations_consistent():
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    sys = build_system(p)
    bath = BathParams(beta=1.0, lam=math.sqrt(5.0))
    sd = LorentzDrude(1.0, 0.25)
    res = steady_state(sys, bath, sd, method=CorrectionMethod.HIGH_TEMPERATURE_DAWSON)
    obs = observables(res.state, p)
    assert obs.p_plus + obs.p_minus == pytest.approx(1.0, abs=1e-12)
    assert obs.p_e + obs.p_g == pytest.approx(1.0, abs=1e-12)
    # epsilon > 0 biases sigma_z toward -1, and the ground state dominates
    assert obs.p_minus > obs.p_plus
    assert obs.p_g > obs.p_e


def test_c_ss_magnitude_decreases_with_coupling():
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    sys = build_system(p)
    sd = LorentzDrude(1.0, 0.25)
    mags = []
    for lam2q in (5.0, 20.0, 50.0):
        bath = BathParams(beta=1.0, lam=math.sqrt(lam2q))
        res = steady_state(sys, bath, sd, method=CorrectionMethod.HIGH_TEMPERATURE_DAWSON)
        mags.append(abs(observables(res.state, p).c_ss))
    assert mags[0] > mags[1] > mags[2]


def test_observables_rejects_wrong_dimension():
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    state = DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(ValidationError):
        observables(state, p)


def test_observables_rejects_unphysical_coherence():
    p = SpinBosonParams(epsilon=1.0, delta=0.7)
    bad = np.array([[0.5, 0.7], [0.7, 0.5]])
    state = DensityMatrix(bad, check_positive=False)
    with pytest.raises(ValidationError):
        observables(state, p)
    with pytest.raises(ValidationError):
        SpinObservables(c_ss=0.0, c_eg=0.51, p_plus=0.5, p_minus=0.5, p_e=0.5, p_g=0.5)
