"""Spin-boson convenience layer.

Builds the two-level SystemSpec with H_S = (eps/2) sigma_z + (delta/2) sigma_x
coupled through A = sigma_z, and extracts the two coherences of interest:
c_ss in the sigma_z eigenbasis and c_eg in the H_S eigenbasis. The H_S
eigenvectors are fixed to the phase convention

    |e> = ((w_s + eps)|+> + delta|->) / sqrt(2 w_s (w_s + eps))
    |g> = (-delta|+> + (w_s + eps)|->) / sqrt(2 w_s (w_s + eps))

with w_s = sqrt(eps^2 + delta^2), so reported signs are stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DensityMatrix
from .steady import SystemSpec

__all__ = ["SpinBosonParams", "SpinObservables", "build_system", "observables"]

_COHERENCE_SLACK = 1e-9


@dataclass(frozen=True)
class SpinBosonParams:
    """sigma_z splitting epsilon and sigma_x tunneling delta (delta != 0)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and np.isfinite(self.delta)):
            raise ValidationError("spin parameters must be finite")
        if self.delta == 0:
            raise ValidationError(
                "delta = 0 makes [H_S, A] vanish; the coupling basis is then stationary"
            )

    @property
    def omega_s(self) -> float:
        """Splitting of H_S: sqrt(epsilon^2 + delta^2)."""
        return float(np.hypot(self.epsilon, self.delta))

    @functools.cached_property
    def energy_eigenvectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(|e>, |g>) columns in the standard basis (|+> = e0, |-> = e1), real
        and read-only, computed on first use and kept with these parameters."""
        w_s = self.omega_s
        norm = np.sqrt(2.0 * w_s * (w_s + self.epsilon))
        e = np.array([w_s + self.epsilon, self.delta]) / norm
        g = np.array([-self.delta, w_s + self.epsilon]) / norm
        e.flags.writeable = g.flags.writeable = False
        return e, g


@dataclass(frozen=True)
class SpinObservables:
    """Coherences and populations in the sigma_z and H_S eigenbases.

    c_ss = <+|rho|->, c_eg = <e|rho|g>. Physical states obey |c| <= 1/2,
    enforced here with a small slack for rounding.
    """

    c_ss: complex
    c_eg: complex
    p_plus: float
    p_minus: float
    p_e: float
    p_g: float

    def __post_init__(self):
        for name in ("c_ss", "c_eg"):
            if abs(getattr(self, name)) > 0.5 + _COHERENCE_SLACK:
                raise ValidationError(
                    f"|{name}| = {abs(getattr(self, name)):.6g} exceeds 1/2"
                )


def build_system(p: SpinBosonParams) -> SystemSpec:
    """SystemSpec for H_S = (eps/2) sigma_z + (delta/2) sigma_x, A = sigma_z.

    In the A eigenbasis (ascending, so index 0 is sigma_z = -1):
    h_(-+) = (-eps/2, +eps/2), h_{+,-} = delta/2, gap omega_{+,-} = eps.
    """
    h_s = np.array(
        [[p.epsilon / 2.0, p.delta / 2.0], [p.delta / 2.0, -p.epsilon / 2.0]]
    )
    a = np.diag([1.0, -1.0])
    return SystemSpec(h_s, a)


def observables(state: DensityMatrix, p: SpinBosonParams) -> SpinObservables:
    """Read both coherences and both population pairs off a 2x2 state.

    The state is taken in the standard basis that build_system uses, where
    |+> is the first computational vector. The H_S eigenvectors are p's own,
    computed once per parameters object (so once per sweep in the CLI), and
    <e|rho is formed once for both c_eg and p_e.
    """
    if state.dim != 2:
        raise ValidationError(f"spin observables need a 2x2 state, got dim {state.dim}")
    rho = state.entries
    e, g = p.energy_eigenvectors  # real: no conjugation
    e_rho = e @ rho
    return SpinObservables(
        c_ss=complex(rho[0, 1]),
        c_eg=complex(e_rho @ g),
        p_plus=float(rho[0, 0].real),
        p_minus=float(rho[1, 1].real),
        p_e=float((e_rho @ e).real),
        p_g=float((g @ rho @ g).real),
    )
