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
import contextlib
import json
import math
import sys as _sys
from dataclasses import dataclass, fields

import numpy as np

from . import oracle, special, spectral, steady
from .comparator import me_steady_state
from .errors import MeanForceError, NumericsError, ValidationError
from .spinboson import SpinBosonParams, build_system, observables
from .steady import CorrectionMethod, RenormalizationConvention
from .svg import render_line_plot

__all__ = ["SweepSpec", "run_sweep", "run_verify", "main", "PRESETS"]

SWEPT_NAMES = ("lambda2Q", "beta", "omega_c")
_CELLS = ("c_ss_real", "c_ss_imag", "c_eg_real", "c_eg_imag", "p_plus")
# The CSV flag columns, by the regime_diagnostics key each one reports.
_FLAGS = {
    "flag_strong_coupling": "strong_coupling",
    "flag_series": "series_regime",
    "flag_high_t": "high_t_regime",
}

# The oracle discretizes J over [0, factor * cutoff]: Lorentz-Drude's J has a
# tail far past omega_c, and every other family's J ends at its cutoff.
_ORACLE_BAND = {"lorentz-drude": 12.0}


def _correction(method: CorrectionMethod):
    return lambda spec, sys, bath, sd, q: (
        steady.steady_state(sys, bath, sd, method, spec.convention, q).state, ())


def _oracle(spec, sys, bath, sd, q):
    band = _ORACLE_BAND.get(spec.spectral, 1.0) * sd.cutoff
    bd = oracle.BathDiscretization(oracle.discretize(sd, spec.oracle_modes, band).modes, spec.fock_cutoff)
    res = oracle.exact_mean_force_state(sys, bd, bath, spec.convention)
    flags = " and ".join(f for f in ("non_converged", "truncation_suspect") if getattr(res, f))
    return res.state, [f"{flags} at Fock cutoff {res.fock_cutoff}"] if flags else ()


# Each method's route from (spec, system, bath, density, quadrature settings)
# to its state and its notes for the CSV. Routes look the library up when they
# run, so a rebound module attribute (a tracer's wrapper, a test's counter) is
# the one called.
_ROUTES = {
    **{m.value: _correction(m) for m in CorrectionMethod},
    "me": lambda spec, sys, bath, sd, q: (me_steady_state(sys, bath, sd, q).state, ()),
    "zeroth": lambda spec, sys, bath, sd, q: (steady.zeroth_order_state(sys, bath, spec.convention, sd), ()),
    "oracle": _oracle,
}
METHOD_NAMES = tuple(_ROUTES)

_FIG1A = {
    "swept": "lambda2Q", "lo": 0.2, "hi": 10.0, "points": 50,
    "delta": 0.7, "beta": 1.0, "omega_c": 0.25, "spectral": "lorentz-drude",
    "methods": ("high-t", "series", "me"), "plot": "c_ss_real",
}
_FIG2 = {
    "swept": "beta", "lo": 0.05, "hi": 3.0, "points": 60,
    "delta": 0.7, "lambda2q": 5.0, "omega_c": 0.5, "spectral": "lorentz-drude",
    "methods": ("high-t", "me"), "plot": "c_ss_real",
}
PRESETS = {
    "fig1a": _FIG1A,
    # Same sweep; the plot column is the energy-basis coherence instead.
    "fig1b": {**_FIG1A, "plot": "c_eg_real"},
    "fig2": _FIG2,
    # fig2 variant with the slower cutoff omega_c = 0.1.
    "fig2-text": {**_FIG2, "omega_c": 0.1},
    "fig3": {
        "swept": "omega_c", "lo": 0.05, "hi": 2.0, "points": 50,
        "delta": 0.7, "beta": 1.0, "lambda2q": 5.0, "spectral": "lorentz-drude",
        "methods": ("high-t", "me"), "plot": "c_ss_real",
    },
}

@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep request; energies in units of the sigma_z splitting.

    Each field is set by the `sweep` flag whose dest is the field's name.
    """

    swept: str
    lo: float
    hi: float
    points: int = 50
    delta: float = 0.7
    beta: float = 1.0
    omega_c: float = 0.25
    lambda2q: float = 1.0
    spectral: str = "lorentz-drude"
    methods: tuple = ("high-t",)
    convention: RenormalizationConvention = RenormalizationConvention.RENORMALIZED
    log: bool = False
    rel_tol: float = special.QuadratureSettings.rel_tol
    oracle_modes: int = 3
    fock_cutoff: int | None = None
    plot: str = "c_ss_real"

    def __post_init__(self):
        if self.swept not in SWEPT_NAMES:
            raise ValidationError(
                f"swept parameter {self.swept!r} not one of {SWEPT_NAMES}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"sweep bounds must be finite, got [{self.lo}, {self.hi}]")
        for name in ("delta", "beta", "omega_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.lo < self.hi:
            raise ValidationError(f"need from < to, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise ValidationError(f"points = {self.points} must be at least 2")
        if not (0 <= self.lambda2q < math.inf) or (self.swept == "lambda2Q" and self.lo < 0):
            raise ValidationError("lambda^2 Q must be finite and nonnegative")
        if self.log and self.lo <= 0:
            raise ValidationError("log grid needs a positive lower bound")
        if not self.methods:
            raise ValidationError("at least one method required")
        bad = [m for m in self.methods if m not in METHOD_NAMES]
        if bad:
            raise ValidationError(f"unknown methods {bad}; choose from {METHOD_NAMES}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValidationError(f"methods {repeated} named more than once")
        if self.spectral.startswith("tabulated:") and self.swept == "omega_c":
            raise ValidationError("a tabulated density has no omega_c to sweep")
        if self.plot not in _CELLS:
            raise ValidationError(f"plot column {self.plot!r} not one of {_CELLS}")
        if self.oracle_modes < 1:
            raise ValidationError("oracle_modes must be at least 1")
        if self.fock_cutoff is not None and self.fock_cutoff < 1:
            raise ValidationError("fock_cutoff must be at least 1")


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


def _sweep_invariants(spec: SweepSpec) -> tuple:
    """What no sweep point changes: the spin parameters (which keep their H_S
    eigenvectors for the observables), their SystemSpec and the quadrature
    settings."""
    params = SpinBosonParams(1.0, spec.delta)
    return params, build_system(params), special.QuadratureSettings(rel_tol=spec.rel_tol)


def _evaluate_point(
    spec: SweepSpec, value: float, sd: spectral.SpectralDensity | None, invariants: tuple | None = None
) -> tuple[dict, dict, list]:
    """All requested methods at one sweep point: (cells, flags, notes).

    invariants is run_sweep's _sweep_invariants(spec), built here when not given.
    """
    beta = value if spec.swept == "beta" else spec.beta
    lambda2q = value if spec.swept == "lambda2Q" else spec.lambda2q
    if sd is None:
        sd = _spectral_density(spec.spectral, value)
    q_reorg = sd.reorganization_energy()
    lam = math.sqrt(lambda2q / q_reorg)
    bath = spectral.BathParams(beta, lam)
    params, sys_spec, settings = invariants or _sweep_invariants(spec)

    cells: dict = {}
    notes: list = []
    for m in spec.methods:
        try:
            state, route_notes = _ROUTES[m](spec, sys_spec, bath, sd, settings)
            cells[m] = _obs_cells(state, params)
        except MeanForceError as exc:
            cells[m], route_notes = {c: None for c in _CELLS}, [exc]
        notes += [f"{m}: {n}" for n in route_notes]

    regime = steady.regime_diagnostics(sys_spec, lambda2q, beta, sd)
    flags = {col: int(regime[key]) for col, key in _FLAGS.items()}
    return cells, flags, notes


def _column(method: str, cell: str) -> str:
    """The CSV column name of one method's cell."""
    return f"{method.replace('-', '_')}_{cell}"


def _fmt_cell(v) -> str:
    return "NA" if v is None else f"{v:.17g}"


def run_sweep(spec: SweepSpec) -> str:
    """CSV text, one row per sweep point, deterministic bytes.

    What no point changes is built once per sweep: the spin system (its
    eigensolve and commutator check), the H_S eigenvectors the observables
    read and the quadrature settings, and the spectral density unless
    omega_c is swept.
    """
    values = _grid(spec)
    # The density only changes along an omega_c sweep; otherwise build it once
    # (and read a tabulated file once).
    shared_sd = None if spec.swept == "omega_c" else _spectral_density(
        spec.spectral, spec.omega_c
    )
    invariants = _sweep_invariants(spec)
    results = [_evaluate_point(spec, float(v), shared_sd, invariants) for v in values]

    header = [spec.swept, *(_column(m, c) for m in spec.methods for c in _CELLS), *_FLAGS, "note"]

    lines = [",".join(header)]
    for value, (cells, flags, notes) in zip(values, results):
        row = [f"{value:.17g}"]
        for m in spec.methods:
            row += [_fmt_cell(cells[m][c]) for c in _CELLS]
        row += [str(flags[col]) for col in _FLAGS]
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
        j = header.index(_column(m, spec.plot))
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
            pf = res.populations[:, None] * res.f_values  # p_l f_(l,l')
            upper = np.triu_indices(dim, 1)
            lhs, rhs = pf[upper], pf.T[upper]
            worst = max(worst, np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)))
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
    # Each density next to a direct quadrature of J/w over its own support;
    # Lorentz-Drude's half-line is mapped onto [0, 1) by w = w_c t/(1 - t).
    def ld_mapped(t):
        w = ld.omega_c * t / (1.0 - t)
        return ld(w) / w * ld.omega_c / (1.0 - t) ** 2

    pairs = (
        (ld, special.integrate_finite(ld_mapped, 0.0, 1.0).value),
        (ohmic, special.integrate_finite(lambda w: ohmic(w) / w, 0.0, ohmic.omega_c).value),
    )
    worst = 0.0
    for sd, direct in pairs:
        closed = sd.reorganization_energy()
        worst = max(worst, abs(closed - direct) / closed)
    return worst, 1e-8, "closed-form Q vs direct quadrature of J/w"


def _check_me_vs_exact() -> tuple[float, float, str]:
    sd = spectral.LorentzDrude(1.0, 0.25)
    spin, beta_n = build_system(SpinBosonParams(1.0, 0.7)), 2.0 * math.pi / sd.omega_c
    dim4 = steady.SystemSpec(np.array(
        [[0.6, 0.2 + 0.1j, 0.1, 0.15j], [0.2 - 0.1j, 0.1, 0.3 - 0.2j, 0.05],
         [0.1, 0.3 + 0.2j, -0.2, 0.25 + 0.05j], [-0.15j, 0.05, 0.25 - 0.05j, -0.5]]),
        np.diag([-1.0, -0.3, 0.4, 1.1]))
    worst = 0.0
    for sys_spec, beta, lambda2q in (
        (spin, 1.0, 5.0), (dim4, 1.0, 2.0), (spin, beta_n, 1.0), (spin, beta_n * (1 + 1e-6), 1.0)
    ):
        bath, v = spectral.BathParams(beta, math.sqrt(lambda2q)), sys_spec.a_eigenvectors
        ex = v.conj().T @ steady.steady_state(
            sys_spec, bath, sd, CorrectionMethod.EXACT_QUADRATURE, RenormalizationConvention.NATURAL
        ).state.entries @ v
        ex -= np.diag(np.diag(ex))
        me = me_steady_state(sys_spec, bath, sd).coherences
        worst = max(worst, float(np.max(np.abs(me - ex)) / np.max(np.abs(ex))))
    return worst, 1e-9, "me vs exact, w_c 0.25: spin-boson at beta 1, 2pi/w_c (1 + 0, 1e-6); dim-4"


_CHECKS = {
    "identity-grid": _check_identity_grid,
    "kernel-symmetry": _check_kernel_symmetry,
    "hermiticity": _check_hermiticity,
    "dawson": _check_dawson,
    "reorganization": _check_reorganization,
    "me-vs-exact": _check_me_vs_exact,
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
# Argument handling. Each sweep setting is one SweepSpec field (name, default,
# validation) and one flag of the sweep parser (spelling, type) whose dest is
# the field name. A [sweep] config key is that flag's long name, `_` standing
# for `-`, read through the same parser. Precedence: SweepSpec defaults <
# preset < config file < explicit flags.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Routes argparse failures through the package error type so the
    top-level handler can map them to the validation exit code."""

    def error(self, message):
        raise ValidationError(message)


# Sweep flags a config file may not set: they print help or name files.
_FLAG_ONLY = ("help", "config", "out", "svg")


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise argparse.ArgumentTypeError(f"{text!r} is not a boolean; use true or false")
    return states[text.lower()]


def _read_config(path: str, section: str) -> dict:
    """The section's values by key; a missing section is empty."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal, as flags are
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(
            f"config file {path!r} is not INI: {str(exc).splitlines()[0]}"
        ) from None
    if not found:
        raise ValidationError(f"config file {path!r} not found or unreadable")
    return dict(parser[section]) if section in parser else {}


def _read_sweep_config(path: str | None) -> argparse.Namespace:
    """The [sweep] section parsed as `--key=value` sweep flags; no path, no settings."""
    conf = _read_config(path, "sweep") if path else {}
    names = [k.replace("_", "-") for k in conf]
    twice = [k for k, name in zip(conf, names) if names.count(name) > 1]
    if twice:
        raise ValidationError(f"keys {twice} in [sweep] of {path} name one setting twice")
    flags = {
        k: f"--{k.replace('_', '-')}={v}" for k, v in conf.items() if k not in _FLAG_ONLY
    }
    try:
        ns, extra = _parser().parse_known_args(["sweep", *flags.values()])
    except ValidationError as exc:
        raise ValidationError(f"{exc} (in [sweep] of {path})") from None
    # A key naming no setting is an error, so a typo cannot pass silently.
    unknown = [k for k in conf if k in _FLAG_ONLY or flags[k] in extra]
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in [sweep] of {path}")
    return ns


def _settings(ns: argparse.Namespace) -> dict:
    """The SweepSpec fields a parse gave a value, by field name."""
    values = {f.name: getattr(ns, f.name) for f in fields(SweepSpec)}
    return {k: v for k, v in values.items() if v is not None}


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    config = _read_sweep_config(args.config)
    merged = dict(PRESETS.get(args.preset or config.preset, {}))
    merged.update(_settings(config))
    merged.update(_settings(args))
    if not {"swept", "lo", "hi"} <= merged.keys():
        raise ValidationError("a sweep needs --sweep, --from and --to (or a preset)")
    return SweepSpec(**merged)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="meanforce",
        description="Mean force Gibbs state sweeps and verification runs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="sweep a parameter, emit CSV and optional SVG",
                        allow_abbrev=False)
    sw.add_argument("--preset", choices=sorted(PRESETS))
    sw.add_argument("--config", help="INI file whose [sweep] keys are these flags")
    sw.add_argument("--out", help="CSV path (default stdout)")
    sw.add_argument("--svg", help="also write an SVG plot here")
    sw.add_argument("--sweep", dest="swept", choices=SWEPT_NAMES)
    sw.add_argument("--from", dest="lo", type=float)
    sw.add_argument("--to", dest="hi", type=float)
    sw.add_argument("--points", type=int)
    sw.add_argument("--log", type=_boolean, nargs="?", const=True, metavar="BOOL",
                    help="logarithmic sweep grid")
    sw.add_argument("--delta", type=float)
    sw.add_argument("--beta", type=float)
    sw.add_argument("--omega-c", dest="omega_c", type=float)
    sw.add_argument("--lambda2q", type=float)
    sw.add_argument("--spectral", help="lorentz-drude | ohmic | tabulated:PATH")
    sw.add_argument("--methods", help=f"comma list from {METHOD_NAMES}",
                    type=lambda s: tuple(m.strip() for m in s.split(",") if m.strip()))
    sw.add_argument("--convention", type=RenormalizationConvention,
                    metavar="{renormalized,natural}")
    sw.add_argument("--rel-tol", dest="rel_tol", type=float)
    sw.add_argument("--oracle-modes", dest="oracle_modes", type=int)
    sw.add_argument("--fock-cutoff", dest="fock_cutoff", type=int)
    sw.add_argument("--plot", choices=_CELLS, help="column the SVG plots")

    vf = sub.add_parser("verify", help="run consistency checks, emit a JSON report",
                        allow_abbrev=False)
    vf.add_argument("checks", nargs="*", help=f"names from {list(_CHECKS)}")
    vf.add_argument("--config", default=None)
    vf.add_argument("--out", default=None, help="report path (default stdout)")
    return p


def _open(path: str | None, stack: contextlib.ExitStack):
    """path opened for writing and closed with stack; stdout for no path."""
    if path is None:
        return _sys.stdout
    try:
        return stack.enter_context(open(path, "w"))
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror}") from None


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Output files are opened before the run, so a bad path costs no sweep.
        with contextlib.ExitStack() as stack:
            if args.command == "sweep":
                spec = _build_sweep_spec(args)
                out, svg = _open(args.out, stack), args.svg and _open(args.svg, stack)
                csv_text = run_sweep(spec)
                out.write(csv_text)
                if svg:
                    svg.write(sweep_svg(spec, csv_text))
                return 0
            checks = list(args.checks) or None
            if checks is None and args.config:
                conf = _read_config(args.config, "verify")
                unknown = [k for k in conf if k != "checks"]
                if unknown:
                    raise ValidationError(f"unknown keys {unknown} in [verify] of {args.config}")
                if "checks" in conf:
                    # An empty value is an explicit empty list, not "all".
                    checks = [c.strip() for c in conf["checks"].split(",") if c.strip()]
            out = _open(args.out, stack)
            report = run_verify(checks)
            out.write(json.dumps(report, indent=2) + "\n")
            return 0 if report["all_passed"] else 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3
    except (MeanForceError, OSError) as exc:  # OSError: a write to an opened file failed
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
