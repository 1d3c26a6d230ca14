"""Command-line front end: parameter sweeps, verification runs, CSV/SVG output.

Units follow the figure conventions: the sigma_z splitting is the energy unit
(epsilon = 1), beta is in 1/epsilon, and coupling strength enters as the
product lambda^2 Q. Built-in spectral families are normalized to Q = 1 so the
lambda2Q axis is exactly the reorganization scale; a tabulated density keeps
its own Q and lambda is solved from lambda^2 Q.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys as _sys
from dataclasses import dataclass

import numpy as np

from . import oracle, special, spectral, steady
from .comparator import me_state, me_steady_state
from .errors import MeanForceError, NumericsError, ValidationError
from .spinboson import SpinBosonParams, build_system, observables
from .steady import CorrectionMethod, RenormalizationConvention
from .svg import render_line_plot

__all__ = ["SweepSpec", "run_sweep", "run_verify", "main", "PRESETS"]

SWEPT_NAMES = ("lambda2Q", "beta", "omega_c")
METHOD_NAMES = ("exact", "high-t", "series", "me", "zeroth", "oracle")
_CELLS = ("c_ss_real", "c_ss_imag", "c_eg_real", "c_eg_imag", "p_plus")

PRESETS = {
    "fig1a": {
        "swept": "lambda2Q", "lo": 0.2, "hi": 10.0, "points": 50,
        "delta": 0.7, "beta": 1.0, "omega_c": 0.25, "spectral": "lorentz-drude",
        "methods": "high-t,series,me", "plot": "c_ss_real",
    },
    # Same sweep; the plot column is the energy-basis coherence instead.
    "fig1b": {
        "swept": "lambda2Q", "lo": 0.2, "hi": 10.0, "points": 50,
        "delta": 0.7, "beta": 1.0, "omega_c": 0.25, "spectral": "lorentz-drude",
        "methods": "high-t,series,me", "plot": "c_eg_real",
    },
    "fig2": {
        "swept": "beta", "lo": 0.05, "hi": 3.0, "points": 60,
        "delta": 0.7, "lambda2q": 5.0, "omega_c": 0.5, "spectral": "lorentz-drude",
        "methods": "high-t,me", "plot": "c_ss_real",
    },
    # fig2 variant with the slower cutoff omega_c = 0.1.
    "fig2-text": {
        "swept": "beta", "lo": 0.05, "hi": 3.0, "points": 60,
        "delta": 0.7, "lambda2q": 5.0, "omega_c": 0.1, "spectral": "lorentz-drude",
        "methods": "high-t,me", "plot": "c_ss_real",
    },
    "fig3": {
        "swept": "omega_c", "lo": 0.05, "hi": 2.0, "points": 50,
        "delta": 0.7, "beta": 1.0, "lambda2q": 5.0, "spectral": "lorentz-drude",
        "methods": "high-t,me", "plot": "c_ss_real",
    },
}

_DEFAULTS = {
    "swept": None, "lo": None, "hi": None, "points": None, "log": False,
    "delta": 0.7, "beta": 1.0, "omega_c": 0.25, "lambda2q": 1.0,
    "spectral": "lorentz-drude", "methods": "high-t", "convention": "renormalized",
    "rel_tol": 1e-10, "oracle_modes": 3, "fock_cutoff": None, "plot": "c_ss_real",
}


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep request; energies in units of the sigma_z splitting."""

    swept: str
    lo: float
    hi: float
    points: int
    delta: float
    beta: float
    omega_c: float
    lambda2q: float
    spectral: str
    methods: tuple
    convention: RenormalizationConvention
    log: bool = False
    rel_tol: float = 1e-10
    oracle_modes: int = 3
    fock_cutoff: int | None = None
    plot: str = "c_ss_real"

    def __post_init__(self):
        if self.swept not in SWEPT_NAMES:
            raise ValidationError(
                f"swept parameter {self.swept!r} not one of {SWEPT_NAMES}"
            )
        if not self.lo < self.hi:
            raise ValidationError(f"need from < to, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise ValidationError(f"points = {self.points} must be at least 2")
        if self.log and self.lo <= 0:
            raise ValidationError("log grid needs a positive lower bound")
        if not self.methods:
            raise ValidationError("at least one method required")
        bad = [m for m in self.methods if m not in METHOD_NAMES]
        if bad:
            raise ValidationError(f"unknown methods {bad}; choose from {METHOD_NAMES}")
        if self.spectral.startswith("tabulated:") and self.swept == "omega_c":
            raise ValidationError("a tabulated density has no omega_c to sweep")
        if self.plot not in _CELLS:
            raise ValidationError(f"plot column {self.plot!r} not one of {_CELLS}")
        if self.oracle_modes < 1:
            raise ValidationError("oracle_modes must be at least 1")


def _spectral_density(name: str, omega_c: float) -> spectral.SpectralDensity:
    """Built-in families carry Q = 1 by construction."""
    if name == "lorentz-drude":
        return spectral.LorentzDrude(1.0, omega_c)
    if name == "ohmic":
        return spectral.OhmicHardCutoff(1.0 / omega_c, omega_c)
    if name.startswith("tabulated:"):
        return spectral.Tabulated.from_file(name.split(":", 1)[1])
    raise ValidationError(
        f"unknown spectral family {name!r}; use lorentz-drude, ohmic, or tabulated:PATH"
    )


def _grid(spec: SweepSpec) -> np.ndarray:
    if spec.log:
        return np.logspace(math.log10(spec.lo), math.log10(spec.hi), spec.points)
    return np.linspace(spec.lo, spec.hi, spec.points)


def _obs_cells(state, params: SpinBosonParams) -> dict:
    o = observables(state, params)
    return {
        "c_ss_real": o.c_ss.real, "c_ss_imag": o.c_ss.imag,
        "c_eg_real": o.c_eg.real, "c_eg_imag": o.c_eg.imag,
        "p_plus": o.p_plus,
    }


def _evaluate_point(
    spec: SweepSpec, value: float, sd: spectral.SpectralDensity | None
) -> tuple[dict, dict, list]:
    """All requested methods at one sweep point: (cells, flags, notes)."""
    beta = value if spec.swept == "beta" else spec.beta
    lambda2q = value if spec.swept == "lambda2Q" else spec.lambda2q
    if sd is None:
        sd = _spectral_density(spec.spectral, value)
    q_reorg = sd.reorganization_energy()
    lam = math.sqrt(lambda2q / q_reorg)
    bath = spectral.BathParams(beta, lam)
    params = SpinBosonParams(1.0, spec.delta)
    sys_spec = build_system(params)
    settings = special.QuadratureSettings(rel_tol=spec.rel_tol)

    cells: dict = {}
    notes: list = []
    for m in spec.methods:
        try:
            if m == "zeroth":
                state = steady.zeroth_order_state(sys_spec, bath, spec.convention, sd)
            elif m == "me":
                state = me_state(sys_spec, me_steady_state(sys_spec, bath, sd, settings))
            elif m == "oracle":
                bd = oracle.discretize(
                    sd, spec.oracle_modes, 12.0 * sd.cutoff
                )
                if spec.fock_cutoff is not None:
                    bd = oracle.BathDiscretization(
                        bd.modes, spec.fock_cutoff, source=bd.source
                    )
                state = oracle.exact_mean_force_state(
                    sys_spec, bd, bath, spec.convention
                ).state
            else:
                state = steady.steady_state(
                    sys_spec, bath, sd, CorrectionMethod(m), spec.convention, settings
                ).state
            cells[m] = _obs_cells(state, params)
        except MeanForceError as exc:
            cells[m] = {c: None for c in _CELLS}
            notes.append(f"{m}: {exc}")

    regime = steady.regime_diagnostics(sys_spec, lambda2q, beta, sd)
    flags = {
        "flag_strong_coupling": int(regime["strong_coupling"]),
        "flag_series": int(regime["series_regime"]),
        "flag_high_t": int(regime["high_t_regime"]),
    }
    return cells, flags, notes


def _fmt_cell(v) -> str:
    return "NA" if v is None else f"{v:.17g}"


def run_sweep(spec: SweepSpec) -> str:
    """CSV text, one row per sweep point, deterministic bytes."""
    values = _grid(spec)
    # The density only changes along an omega_c sweep; otherwise build it once
    # (and read a tabulated file once).
    shared_sd = None if spec.swept == "omega_c" else _spectral_density(
        spec.spectral, spec.omega_c
    )
    results = [_evaluate_point(spec, float(v), shared_sd) for v in values]

    header = [spec.swept]
    for m in spec.methods:
        prefix = m.replace("-", "_")
        header += [f"{prefix}_{c}" for c in _CELLS]
    header += ["flag_strong_coupling", "flag_series", "flag_high_t", "note"]

    lines = [",".join(header)]
    for value, (cells, flags, notes) in zip(values, results):
        row = [f"{value:.17g}"]
        for m in spec.methods:
            row += [_fmt_cell(cells[m][c]) for c in _CELLS]
        row += [
            str(flags[k])
            for k in ("flag_strong_coupling", "flag_series", "flag_high_t")
        ]
        row.append("; ".join(n.replace(",", ";").replace("\n", " ") for n in notes))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_svg(spec: SweepSpec, csv_text: str) -> str:
    """Plot one observable column per method from the CSV just produced."""
    rows = [line.split(",") for line in csv_text.strip().split("\n")]
    header, data = rows[0], rows[1:]
    x = np.array([float(r[0]) for r in data])
    series = []
    for m in spec.methods:
        j = header.index(f"{m.replace('-', '_')}_{spec.plot}")
        y = np.array([float(r[j]) if r[j] != "NA" else np.nan for r in data])
        series.append((m, x, y))
    return render_line_plot(
        series,
        title=f"{spec.plot} vs {spec.swept}",
        x_label=spec.swept,
        y_label=spec.plot,
        log_x=spec.log,
    )


# ---------------------------------------------------------------------------
# Verification checks. Each returns (measured, tolerance, details); a check
# passes when measured < tolerance. Lookups go through module attributes so
# a harness can inject faults.
# ---------------------------------------------------------------------------


def _check_identity_grid() -> tuple[float, float, str]:
    bd = oracle.BathDiscretization(modes=((0.4, 1.0),), fock_cutoff=60)
    worst = 0.0
    for u in np.linspace(0.1, 0.9, 5):
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            lhs, rhs = oracle.verify_trace_identity(bd, 1.0, -1.0, lam, 1.0, float(u))
            worst = max(worst, abs(lhs / rhs - 1.0))
    return worst, 1e-8, "5x5 (u, lambda) grid, single mode w=1 g=0.4 cutoff 60"


def _check_kernel_symmetry() -> tuple[float, float, str]:
    sd = spectral.LorentzDrude(1.0, 0.25)
    worst = 0.0
    for u in np.linspace(0.05, 0.45, 9):
        k1 = spectral.overlap_kernel(sd, 1.0, float(u))
        k2 = spectral.overlap_kernel(sd, 1.0, float(1.0 - u))
        worst = max(worst, abs(k1 - k2))
    return worst, 1e-9, "K(u) = K(beta-u) on a 9-point grid, Lorentz-Drude"


def _check_hermiticity() -> tuple[float, float, str]:
    rng = np.random.default_rng(0)
    sd = spectral.LorentzDrude(1.0, 0.25)
    bath = spectral.BathParams(1.0, 2.0)
    worst = 0.0
    for dim in (2, 3, 4):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2.0
        a = np.diag(np.arange(1.0, dim + 1.0))
        sys_spec = steady.SystemSpec(h, a)
        for method in CorrectionMethod:
            res = steady.steady_state(sys_spec, bath, sd, method)
            p, f = res.populations, res.f_values
            for l in range(dim):
                for l2 in range(l + 1, dim):
                    lhs, rhs = p[l] * f[l, l2], p[l2] * f[l2, l]
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst, 1e-9, "p_l f_(l,l') = p_(l') f_(l',l), dims 2-4, all methods"


def _check_dawson() -> tuple[float, float, str]:
    worst = 0.0
    for x in (0.1, 1.0, 5.0):
        # e^{-x^2} int_0^x e^{t^2} dt, rewritten with s = x - t so the
        # integrand e^{-s(2x-s)} stays in (0, 1] for any x.
        ref = special.integrate_finite(
            lambda s: np.exp(-np.asarray(s) * (2.0 * x - np.asarray(s))), 0.0, x
        ).value
        worst = max(worst, abs(special.dawson(x) - ref))
    return worst, 1e-12, "defining integral at x in {0.1, 1, 5}"


def _check_reorganization() -> tuple[float, float, str]:
    ld = spectral.LorentzDrude(1.0, 0.25)
    ohmic = spectral.OhmicHardCutoff(4.0, 0.25)
    # Each density next to a direct quadrature of J/w over its own support.
    pairs = (
        (ld, special.integrate_semi_infinite(
            lambda w: ld(w) / w,
            0.0,
            lambda w: 2.0 * ld.Q * ld.omega_c / w**2,
            omega_ref=ld.omega_c,
        ).value),
        (ohmic, special.integrate_finite(lambda w: ohmic(w) / w, 0.0, ohmic.omega_c).value),
    )
    worst = 0.0
    for sd, direct in pairs:
        closed = sd.reorganization_energy()
        worst = max(worst, abs(closed - direct) / closed)
    return worst, 1e-8, "closed-form Q vs direct quadrature of J/w"


_CHECKS = {
    "identity-grid": _check_identity_grid,
    "kernel-symmetry": _check_kernel_symmetry,
    "hermiticity": _check_hermiticity,
    "dawson": _check_dawson,
    "reorganization": _check_reorganization,
}


def run_verify(checks=None) -> dict:
    """Machine-readable pass/fail report; checks=None runs all of them.

    An explicitly empty check list yields an empty report that passes.
    """
    names = list(_CHECKS) if checks is None else list(checks)
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ValidationError(f"unknown checks {unknown}; available: {list(_CHECKS)}")
    rows = []
    for name in names:
        measured, tolerance, details = _CHECKS[name]()
        rows.append(
            {
                "check": name,
                "passed": bool(measured < tolerance),
                "measured": float(measured),
                "tolerance": float(tolerance),
                "details": details,
            }
        )
    return {"checks": rows, "all_passed": all(r["passed"] for r in rows)}


# ---------------------------------------------------------------------------
# Argument handling: defaults < preset < config file < explicit CLI flags.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Routes argparse failures through the package error type so the
    top-level handler can map them to the validation exit code."""

    def error(self, message):
        raise ValidationError(message)


_CONFIG_KEY_MAP = {
    "sweep": "swept", "from": "lo", "to": "hi", "omega-c": "omega_c",
    "rel-tol": "rel_tol", "oracle-modes": "oracle_modes",
    "fock-cutoff": "fock_cutoff",
}


# The sweep settings a config file or a flag may set, by SweepSpec field name.
_SWEEP_KEYS = (
    "swept", "lo", "hi", "points", "log", "delta", "beta", "omega_c",
    "lambda2q", "spectral", "methods", "convention", "rel_tol",
    "oracle_modes", "fock_cutoff", "plot",
)


def _read_config(path: str, section: str, allowed) -> dict:
    """The section's values by setting name; a key naming no allowed setting is an error."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValidationError(f"config file {path!r} not found or unreadable")
    if section not in parser:
        return {}
    conf = parser[section]
    names = {k: _CONFIG_KEY_MAP.get(k, k.replace("-", "_")) for k in conf}
    unknown = [k for k, name in names.items() if name not in allowed]
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in [{section}] of {path}")
    return {name: conf[k] for k, name in names.items()}


def _coerce(merged: dict) -> dict:
    """Config file values arrive as strings; give them their real types."""
    out = dict(merged)
    for k in ("lo", "hi", "delta", "beta", "omega_c", "lambda2q", "rel_tol"):
        if isinstance(out.get(k), str):
            out[k] = float(out[k])
    for k in ("points", "oracle_modes", "fock_cutoff"):
        if isinstance(out.get(k), str):
            out[k] = int(out[k])
    if isinstance(out.get("log"), str):
        out["log"] = out["log"].strip().lower() in ("1", "true", "yes", "on")
    return out


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    merged = dict(_DEFAULTS)
    config = {}
    if args.config:
        config = _read_config(args.config, "sweep", ("preset",) + _SWEEP_KEYS)
    preset = args.preset if args.preset is not None else config.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ValidationError(f"unknown preset {preset!r}; have {list(PRESETS)}")
        merged.update(PRESETS[preset])
    merged.update(config)
    for key in _SWEEP_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    merged = _coerce(merged)
    if merged["swept"] is None or merged["lo"] is None or merged["hi"] is None:
        raise ValidationError("a sweep needs --sweep, --from and --to (or a preset)")
    if merged["points"] is None:
        merged["points"] = 50
    methods = merged["methods"]
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    try:
        convention = RenormalizationConvention(merged["convention"])
    except ValueError:
        raise ValidationError(
            f"unknown convention {merged['convention']!r}; "
            "use renormalized or natural"
        ) from None
    return SweepSpec(
        swept=merged["swept"], lo=merged["lo"], hi=merged["hi"],
        points=merged["points"], delta=merged["delta"], beta=merged["beta"],
        omega_c=merged["omega_c"], lambda2q=merged["lambda2q"],
        spectral=merged["spectral"], methods=methods, convention=convention,
        log=bool(merged["log"]), rel_tol=merged["rel_tol"],
        oracle_modes=merged["oracle_modes"], fock_cutoff=merged["fock_cutoff"],
        plot=merged["plot"],
    )


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="meanforce",
        description="Mean force Gibbs state sweeps and verification runs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="sweep a parameter, emit CSV and optional SVG")
    sw.add_argument("--preset", default=None, help=f"one of {sorted(PRESETS)}")
    sw.add_argument("--config", default=None, help="INI file mirroring these flags")
    sw.add_argument("--sweep", dest="swept", choices=SWEPT_NAMES, default=None)
    sw.add_argument("--from", dest="lo", type=float, default=None)
    sw.add_argument("--to", dest="hi", type=float, default=None)
    sw.add_argument("--points", type=int, default=None)
    sw.add_argument("--log", action="store_true", default=None,
                    help="logarithmic sweep grid")
    sw.add_argument("--delta", type=float, default=None)
    sw.add_argument("--beta", type=float, default=None)
    sw.add_argument("--omega-c", dest="omega_c", type=float, default=None)
    sw.add_argument("--lambda2q", type=float, default=None)
    sw.add_argument("--spectral", default=None,
                    help="lorentz-drude | ohmic | tabulated:PATH")
    sw.add_argument("--methods", default=None,
                    help=f"comma list from {METHOD_NAMES}")
    sw.add_argument("--convention", choices=("renormalized", "natural"), default=None)
    sw.add_argument("--out", default=None, help="CSV path (default stdout)")
    sw.add_argument("--svg", default=None, help="also write an SVG plot here")
    sw.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    sw.add_argument("--oracle-modes", dest="oracle_modes", type=int, default=None)
    sw.add_argument("--fock-cutoff", dest="fock_cutoff", type=int, default=None)

    vf = sub.add_parser("verify", help="run consistency checks, emit a JSON report")
    vf.add_argument("checks", nargs="*", help=f"names from {list(_CHECKS)}")
    vf.add_argument("--config", default=None)
    vf.add_argument("--out", default=None, help="report path (default stdout)")
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "sweep":
            spec = _build_sweep_spec(args)
            csv_text = run_sweep(spec)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(csv_text)
            else:
                _sys.stdout.write(csv_text)
            if args.svg:
                with open(args.svg, "w") as fh:
                    fh.write(sweep_svg(spec, csv_text))
            return 0
        checks = list(args.checks) or None
        if checks is None and args.config:
            conf = _read_config(args.config, "verify", ("checks",))
            if "checks" in conf:
                # An empty value is an explicit empty list, not "all".
                checks = [c.strip() for c in conf["checks"].split(",") if c.strip()]
        report = run_verify(checks)
        text = json.dumps(report, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            _sys.stdout.write(text)
        return 0 if report["all_passed"] else 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3
    except MeanForceError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
