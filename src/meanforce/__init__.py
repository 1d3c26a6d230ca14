"""First-order mean force Gibbs states of strongly coupled open systems.

The zeroth-order state is diagonal in the coupling-operator eigenbasis; the
first-order coherences come from a two-time overlap integral f(beta) that this
package evaluates three ways (adaptive quadrature, a high-temperature Dawson
form, an ultrastrong asymptotic series) and cross-checks against a dense
finite-bath diagonalization and a master-equation steady state.
"""

from .comparator import MEResult, me_state, me_steady_state
from .errors import (
    MeanForceError,
    NumericsError,
    QuadratureError,
    UnsupportedOperationError,
    ValidationError,
)
from .linalg import DensityMatrix, EigenDecomposition, HermitianMatrix, eigh, matrix_exp_hermitian, partial_trace
from .oracle import (
    BathDiscretization,
    OracleResult,
    discretize,
    exact_mean_force_state,
    verify_trace_identity,
)
from .special import QuadratureResult, QuadratureSettings, dawson, exp1, integrate_finite, integrate_semi_infinite
from .spectral import (
    BathParams,
    DiscreteModes,
    LorentzDrude,
    OhmicHardCutoff,
    SpectralDensity,
    Tabulated,
    bath_correlation,
    g_double_integral,
    j_of_omega,
    overlap_kernel,
)
from .spinboson import SpinBosonParams, SpinObservables, build_system, observables
from .steady import (
    CorrectionMethod,
    CorrectionResult,
    RegimeThresholds,
    RenormalizationConvention,
    SystemSpec,
    f_exact,
    f_high_t,
    f_series,
    steady_state,
    zeroth_order_state,
)

__version__ = "0.1.0"

__all__ = [
    "BathDiscretization",
    "BathParams",
    "CorrectionMethod",
    "CorrectionResult",
    "DensityMatrix",
    "DiscreteModes",
    "EigenDecomposition",
    "HermitianMatrix",
    "LorentzDrude",
    "MEResult",
    "MeanForceError",
    "NumericsError",
    "OhmicHardCutoff",
    "OracleResult",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureSettings",
    "RegimeThresholds",
    "RenormalizationConvention",
    "SpectralDensity",
    "SpinBosonParams",
    "SpinObservables",
    "SystemSpec",
    "Tabulated",
    "UnsupportedOperationError",
    "ValidationError",
    "bath_correlation",
    "build_system",
    "dawson",
    "exp1",
    "discretize",
    "eigh",
    "exact_mean_force_state",
    "f_exact",
    "f_high_t",
    "f_series",
    "g_double_integral",
    "integrate_finite",
    "integrate_semi_infinite",
    "j_of_omega",
    "matrix_exp_hermitian",
    "me_state",
    "me_steady_state",
    "observables",
    "overlap_kernel",
    "partial_trace",
    "steady_state",
    "verify_trace_identity",
    "zeroth_order_state",
]
