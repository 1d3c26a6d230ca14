import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

from meanforce import cli, comparator
from meanforce.errors import NumericsError, ValidationError
from meanforce.special import QuadratureSettings
from meanforce.spectral import BathParams, LorentzDrude
from meanforce.spinboson import SpinBosonParams, build_system
from meanforce.steady import CorrectionMethod, RenormalizationConvention, steady_state


def run_main(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_sweep_csv_structure(tmp_path):
    out = tmp_path / "s.csv"
    rc = run_main([
        "sweep", "--sweep", "lambda2Q", "--from", "1.0", "--to", "5.0",
        "--points", "3", "--methods", "high-t,series", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "lambda2Q"
    for col in ("high_t_c_ss_real", "series_c_ss_real", "high_t_p_plus"):
        assert col in header
    assert header[-4:] == ["flag_strong_coupling", "flag_series", "flag_high_t", "note"]
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    # lambda2q=1, beta=1, omega_c=0.25: strong coupling and high-t flags on,
    # series flag off (1 < 3)
    assert first[-4:] == ["1", "0", "1", ""]
    last = lines[3].split(",")
    assert last[-4:] == ["1", "1", "1", ""]


def test_sweep_strong_coupling_flag_matches_steady_state(tmp_path):
    # lambda^2 Q = 0.55 lies between max|h_l| = 0.5 and omega_s/2 = 0.61.
    out = tmp_path / "s.csv"
    rc = run_main([
        "sweep", "--sweep", "lambda2Q", "--from", "0.55", "--to", "5.0",
        "--points", "2", "--delta", "0.7", "--beta", "1.0", "--omega-c", "0.25",
        "--methods", "high-t", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    flag = lines[1].split(",")[lines[0].split(",").index("flag_strong_coupling")]
    res = steady_state(
        build_system(SpinBosonParams(1.0, 0.7)),
        BathParams(1.0, math.sqrt(0.55)),
        LorentzDrude(1.0, 0.25),
        CorrectionMethod.HIGH_TEMPERATURE_DAWSON,
    )
    assert flag == str(int(res.diagnostics["strong_coupling"]))
    assert flag == "1"


def test_sweep_stdout_and_determinism(tmp_path, capsys):
    argv = ["sweep", "--sweep", "beta", "--from", "0.5", "--to", "2.0",
            "--points", "4", "--methods", "high-t"]
    assert run_main(argv) == 0
    first = capsys.readouterr().out
    assert run_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("beta,high_t_c_ss_real")


def test_every_route_looks_the_library_up_when_it_runs(monkeypatch):
    # The benchmark's tracer rebinds module attributes; a route table holding
    # the functions captured at import would call past the rebound ones.
    from meanforce import oracle, steady

    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli, "me_steady_state")
    count(steady, "steady_state")
    count(steady, "zeroth_order_state")
    count(oracle, "exact_mean_force_state")
    spec = cli.SweepSpec(swept="lambda2Q", lo=1.0, hi=2.0, methods=cli.METHOD_NAMES,
                         oracle_modes=1, fock_cutoff=4)
    cells, _, notes = cli._evaluate_point(spec, 1.0, LorentzDrude(1.0, 0.25))
    # Cutoff 4 leaves no reduced-cutoff re-run, so the oracle flags itself.
    assert notes == ["oracle: non_converged at Fock cutoff 4"] and set(cells) == set(cli.METHOD_NAMES)
    assert calls == {"me_steady_state": 1, "steady_state": 3,
                     "zeroth_order_state": 1, "exact_mean_force_state": 1}


def test_every_route_reports_psd_on_its_state():
    # At lambda^2 Q = 0.05 the series state is far from PSD and the others
    # are not: every route's state says so through the same psd_ok.
    spec = cli.SweepSpec(swept="lambda2Q", lo=1.0, hi=2.0, methods=cli.METHOD_NAMES,
                         oracle_modes=2, fock_cutoff=6)
    sys_spec = build_system(SpinBosonParams(1.0, 0.7))
    bath = BathParams(1.0, math.sqrt(0.05))
    psd = {}
    for m in cli.METHOD_NAMES:
        state, _ = cli._ROUTES[m](spec, sys_spec, bath, LorentzDrude(1.0, 0.25), QuadratureSettings())
        assert state.psd_ok == (state.min_eigenvalue >= -1e-9), m
        psd[m] = state.psd_ok
    assert psd == {m: m != "series" for m in cli.METHOD_NAMES}


def test_lambda_sweep_bytes_do_not_depend_on_spline_reuse(monkeypatch):
    # Along a lambda^2 Q sweep the ME route keeps G at the rule's nodes for
    # the last cut. A sweep that evaluates it afresh at every point, one that
    # reuses it wherever consecutive points share a cut, and a second run of
    # the same sweep give the same bytes; a build is one memo miss, one per
    # distinct cut in a run.
    spec = cli.SweepSpec(
        swept="lambda2Q", lo=0.2, hi=10.0, points=5, delta=0.7, beta=1.0,
        omega_c=0.25, lambda2q=1.0, spectral="lorentz-drude", methods=("me",),
        convention=RenormalizationConvention.RENORMALIZED,
    )
    sd = LorentzDrude(1.0, 0.25)
    monkeypatch.setattr(cli, "_spectral_density", lambda name, omega_c: sd)
    runs = []
    me, point = cli.me_steady_state, cli._evaluate_point

    def recorded(*args):
        res = me(*args)
        runs[-1].append((res.diagnostics["tau_star"], res.diagnostics["g_reused"]))
        return res

    def cold_point(*args):
        comparator._last_g = None
        return point(*args)

    def run():
        runs.append([])
        return cli.run_sweep(spec)

    monkeypatch.setattr(cli, "me_steady_state", recorded)
    monkeypatch.setattr(cli, "_evaluate_point", cold_point)
    cold = run()
    assert [reused for _, reused in runs[0]] == [False] * 5
    monkeypatch.setattr(cli, "_evaluate_point", point)
    monkeypatch.setattr(comparator, "_last_g", None)
    first = run()
    second = run()
    cuts = [tau for tau, _ in runs[0]]
    assert cuts[0] != cuts[-1]
    for r in runs[1:]:
        assert [tau for tau, _ in r] == cuts
        assert sum(not reused for _, reused in r) == len(set(cuts)) < 5
    assert first == second == cold
    assert "NA" not in cold


def test_oracle_over_cap_yields_na_cells(tmp_path):
    # An explicit cutoff, and the automatic one (at least 25) that no
    # 3-mode bath fits under the cap; the note names the cutoff either way.
    out = tmp_path / "na.csv"
    for cutoff_flags, cutoff in ((["--fock-cutoff", "20"], 20), ([], 25)):
        rc = run_main([
            "sweep", "--sweep", "lambda2Q", "--from", "1.0", "--to", "2.0",
            "--points", "2", "--methods", "oracle",
            "--oracle-modes", "3", *cutoff_flags, "--out", str(out),
        ])
        assert rc == 0  # per-point failures degrade to NA, not a crash
        lines = out.read_text().strip().split("\n")
        row = lines[1].split(",")
        assert row[1] == "NA"
        assert f"Fock cutoff {cutoff}) exceeds the cap" in row[-1]
        assert "," not in row[-1]


@pytest.mark.parametrize("spectral", ["ohmic", "tabulated"])
def test_oracle_couples_to_a_compactly_supported_density(spectral, tmp_path, capsys):
    # The oracle's modes lie inside the support [0, 1], so its cells move
    # with the coupling instead of staying at the uncoupled spin's state.
    table = tmp_path / "j.txt"
    table.write_text("0.0 0.0\n0.5 0.5\n1.0 1.0\n")
    name = "ohmic" if spectral == "ohmic" else f"tabulated:{table}"
    rc = run_main([
        "sweep", "--spectral", name, "--omega-c", "1", "--sweep", "lambda2Q",
        "--from", "1", "--to", "2", "--points", "2", "--methods", "oracle",
        "--oracle-modes", "2", "--fock-cutoff", "8",
    ])
    assert rc == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert "NA" not in rows[0] + rows[1]
    assert rows[0][1:6] != rows[1][1:6]


def test_oracle_bath_that_cannot_couple_is_na_with_note(tmp_path, capsys):
    table = tmp_path / "j.txt"  # J lives on [5, 5.4]; one mode sits at 5.5
    table.write_text("5.0 0.0\n5.2 1.0\n5.4 0.0\n6.0 0.0\n")
    rc = run_main([
        "sweep", "--spectral", f"tabulated:{table}", "--sweep", "lambda2Q",
        "--from", "1", "--to", "2", "--points", "2", "--methods", "oracle",
        "--oracle-modes", "1", "--fock-cutoff", "8",
    ])
    assert rc == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[1:6] == ["NA"] * 5
    assert "no mode couples" in row[-1]


def test_oracle_bins_a_table_from_its_first_frequency(tmp_path, capsys):
    # J lives on (5, 6) only: binning [0, 6] would put the 3 midpoints at 1, 3
    # and 5, where J is 0; binning [5, 6] puts all three inside the support.
    table = tmp_path / "j.txt"
    table.write_text("5.0 0.0\n5.5 1.0\n6.0 0.0\n")
    rc = run_main([
        "sweep", "--spectral", f"tabulated:{table}", "--sweep", "lambda2Q",
        "--from", "1", "--to", "2", "--points", "2", "--methods", "oracle,exact",
        "--fock-cutoff", "8",
    ])
    assert rc == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    for row in rows:
        # Its re-run at cutoff 3 is more than 1e-6 away, which the note says.
        assert "NA" not in row and row[-1] == "oracle: non_converged at Fock cutoff 8"
    assert rows[0][1:6] != rows[1][1:6]


def test_presets_run_and_differ(tmp_path):
    files = {}
    for name in sorted(cli.PRESETS):
        out = tmp_path / f"{name}.csv"
        rc = run_main([
            "sweep", "--preset", name, "--points", "2",
            "--methods", "high-t", "--out", str(out),
        ])
        assert rc == 0, name
        files[name] = out.read_text()
    assert files["fig2"].startswith("beta,")
    assert files["fig3"].startswith("omega_c,")
    assert files["fig1a"].startswith("lambda2Q,")
    # the -text variant moves the cutoff, so the numbers move
    assert files["fig2"] != files["fig2-text"]


def test_config_layering(tmp_path):
    conf = tmp_path / "sweep.ini"
    conf.write_text(
        "[sweep]\npreset = fig2\npoints = 7\nomega-c = 0.3\n"
    )
    args = cli._parser().parse_args(
        ["sweep", "--config", str(conf), "--omega-c", "0.9"]
    )
    spec = cli._build_sweep_spec(args)
    assert spec.swept == "beta"  # preset
    assert spec.points == 7  # config beats preset
    assert spec.omega_c == 0.9  # CLI beats config
    assert spec.lambda2q == 5.0  # preset value survives


# A typo, an abbreviation of a flag, a flag that prints help or names a file,
# and a SweepSpec field name that is no flag.
@pytest.mark.parametrize("key", ["pionts", "point", "help", "out", "lo"])
def test_unknown_sweep_config_key_exit_1(key, tmp_path, capsys):
    conf = tmp_path / "sweep.ini"
    conf.write_text(f"[sweep]\npreset = fig1a\npoints = 3\n{key} = 7\n")
    rc = run_main(["sweep", "--config", str(conf)])
    assert rc == 1
    assert f"unknown keys ['{key}'] in [sweep] of {conf}" in capsys.readouterr().err


def test_unknown_verify_config_key_exit_1(tmp_path, capsys):
    conf = tmp_path / "verify.ini"
    conf.write_text("[verify]\nchecks = dawson\ncheck = hermiticity\n")
    rc = run_main(["verify", "--config", str(conf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'check'" in err and "'checks'" not in err


@pytest.mark.parametrize("key, value", [("points", "abc"), ("log", "ture")],
                         ids=["points", "log"])
def test_malformed_config_value_exit_1(key, value, tmp_path, capsys):
    conf = tmp_path / "sweep.ini"
    conf.write_text(f"[sweep]\npreset = fig1a\n{key} = {value}\n")
    rc = run_main(["sweep", "--config", str(conf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"--{key}" in err and f"'{value}'" in err and f"[sweep] of {conf}" in err


# Per SweepSpec field: its flag and a value other than the default or fig2's.
_SETTINGS = {
    "swept": ("sweep", "omega_c"), "lo": ("from", "0.1"), "hi": ("to", "0.9"),
    "points": ("points", "3"), "log": ("log", "true"), "delta": ("delta", "0.5"),
    "beta": ("beta", "2"), "omega_c": ("omega-c", "0.3"), "lambda2q": ("lambda2q", "4"),
    "spectral": ("spectral", "ohmic"), "methods": ("methods", "high-t, series"),
    "convention": ("convention", "natural"), "rel_tol": ("rel-tol", "1e-8"),
    "oracle_modes": ("oracle-modes", "2"), "fock_cutoff": ("fock-cutoff", "5"),
    "plot": ("plot", "p_plus"),
}


def test_every_sweep_setting_is_one_flag_and_one_config_key(tmp_path, capsys):
    assert set(_SETTINGS) == {f.name for f in fields(cli.SweepSpec)}
    conf = tmp_path / "sweep.ini"

    def spec(argv, config_line=""):
        conf.write_text(f"[sweep]\n{config_line}\n")
        args = cli._parser().parse_args(["sweep", "--preset", "fig2", "--config", str(conf),
                                         *argv])
        return cli._build_sweep_spec(args)

    base = spec([])
    for name, (flag, value) in _SETTINGS.items():
        by_flag = spec([f"--{flag}", value])
        assert by_flag == spec([], f"{flag} = {value}") != base, name
        assert getattr(by_flag, name) != getattr(base, name), name
        assert by_flag == spec([], f"{flag.replace('-', '_')} = {value}"), name
    rc = run_main(["sweep", "--preset", "fig2", "--points", "2", "--methods", "high-t",
                   "--omega", "0.3"])
    assert rc == 1
    assert "--omega" in capsys.readouterr().err


def test_config_without_section_header_exit_1(tmp_path, capsys):
    conf = tmp_path / "sweep.ini"
    conf.write_text("points = 3\n")
    rc = run_main(["sweep", "--config", str(conf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(conf) in err


def test_percent_in_config_value_is_literal(tmp_path, capsys):
    conf = tmp_path / "sweep.ini"
    conf.write_text("[sweep]\npreset = fig1a\nmethods = high-t%\n")
    rc = run_main(["sweep", "--config", str(conf)])
    assert rc == 1
    assert "'high-t%'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, argv, named",
    [
        ("omega-c = 0.3\nomega_c = 0.9\n", [], "['omega-c', 'omega_c']"),
        ("", ["--methods", "high-t,series,high-t"], "['high-t']"),
    ],
    ids=["config-spellings", "methods"],
)
def test_duplicated_sweep_input_exit_1(config, argv, named, tmp_path, capsys):
    # One setting under two spellings, or one method twice, is refused rather
    # than resolved by order.
    conf = tmp_path / "sweep.ini"
    conf.write_text(f"[sweep]\npreset = fig1a\npoints = 2\n{config}")
    rc = run_main(["sweep", "--config", str(conf), *argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_svg_output(tmp_path):
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    rc = run_main([
        "sweep", "--sweep", "lambda2Q", "--from", "1.0", "--to", "5.0",
        "--points", "3", "--methods", "high-t", "--log",
        "--out", str(out), "--svg", str(svg),
    ])
    assert rc == 0
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert len(root.findall(f"{ns}polyline")) >= 1


def test_validation_failures_exit_1(tmp_path, capsys):
    cases = [
        ["sweep"],  # no sweep selected
        ["sweep", "--sweep", "lambda2Q", "--from", "2.0", "--to", "1.0"],
        ["sweep", "--preset", "nonesuch"],
        ["sweep", "--sweep", "lambda2Q", "--from", "1.0", "--to", "2.0",
         "--methods", "telepathy"],
        ["sweep", "--sweep", "omega_c", "--from", "0.1", "--to", "1.0",
         "--spectral", "tabulated:/dev/null"],
        ["verify", "nonesuch-check"],
    ]
    for argv in cases:
        assert run_main(argv) == 1, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--sweep", "lambda2Q", "--from", "-1", "--to", "1"],
        ["--sweep", "beta", "--from", "0.5", "--to", "1", "--lambda2q", "-1"],
        ["--sweep", "beta", "--from", "0.5", "--to", "1", "--lambda2q", "nan"],
        ["--sweep", "beta", "--from", "0.5", "--to", "inf"],
        ["--sweep", "omega_c", "--from", "-inf", "--to", "1"],
        ["--sweep", "beta", "--from", "nan", "--to", "1"],
        ["--sweep", "lambda2Q", "--from", "1", "--to", "2", "--omega-c", "inf",
         "--methods", "me"],
        ["--sweep", "lambda2Q", "--from", "1", "--to", "2", "--beta", "inf",
         "--methods", "me"],
        ["--sweep", "lambda2Q", "--from", "1", "--to", "2", "--omega-c", "inf"],
        # Lorentz-Drude's J(w) divides by omega_c^2, which overflows here.
        ["--sweep", "lambda2Q", "--from", "1", "--to", "2", "--omega-c", "1e308",
         "--methods", "me"],
        ["--sweep", "lambda2Q", "--from", "1", "--to", "2", "--omega-c", "1e308",
         "--methods", "exact"],
        ["--sweep", "lambda2Q", "--from", "1", "--to", "2", "--methods", "oracle",
         "--fock-cutoff", "0"],
    ],
    ids=["negative-lambda2Q-from", "negative-lambda2q", "nan-lambda2q", "inf-to",
         "minus-inf-from", "nan-from", "inf-omega-c-me", "inf-beta-me",
         "inf-omega-c-high-t", "huge-omega-c-me", "huge-omega-c-exact",
         "zero-fock-cutoff"],
)
def test_negative_or_nonfinite_sweep_input_exit_1(argv, capsys):
    rc = run_main(["sweep", "--points", "2", "--methods", "high-t", *argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "change, match",
    [
        ({"swept": "delta"}, "swept parameter"),
        ({"points": 1}, "at least 2"),
        ({"log": True, "lo": 0.0}, "log grid"),
        ({"methods": ()}, "at least one method"),
        ({"methods": ("high-t", "high-t")}, "more than once"),
        ({"plot": "p_minus"}, "plot column"),
        ({"oracle_modes": 0}, "oracle_modes"),
    ],
    ids=["swept", "points", "log", "no-methods", "repeated-method", "plot", "oracle-modes"],
)
def test_sweep_spec_refusals(change, match):
    with pytest.raises(ValidationError, match=match):
        cli.SweepSpec(**{"swept": "beta", "lo": 0.5, "hi": 1.0, **change})


def test_unknown_spectral_family_is_refused():
    spec = cli.SweepSpec(swept="beta", lo=0.5, hi=1.0, points=2, spectral="debye")
    with pytest.raises(ValidationError, match="unknown spectral family"):
        cli.run_sweep(spec)


def test_tabulated_density_with_zero_q_exit_1(tmp_path, capsys):
    table = tmp_path / "j.txt"
    table.write_text("0.0 0.0\n1.0 0.0\n2.0 0.0\n")
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2",
                   "--points", "2", "--spectral", f"tabulated:{table}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "table, out",
    [
        (None, None),
        ("0.0 0.0\n1.0 abc\n", None),
        ("0.0 0.0\n1.0\n2.0 0.5\n", None),
        ("0.0 0.0\n1.0 1.0\n2.0 0.0\n", "--out"),
        ("0.0 0.0\n1.0 1.0\n2.0 0.0\n", "--svg"),
    ],
    ids=["missing-table", "non-numeric-cell", "ragged-rows", "out-dir-missing",
         "svg-dir-missing"],
)
def test_unreadable_or_unwritable_file_exit_1(table, out, tmp_path, monkeypatch, capsys):
    # An output path that cannot be written is refused before the sweep starts.
    points = []
    evaluate = cli._evaluate_point
    monkeypatch.setattr(cli, "_evaluate_point", lambda *a: points.append(a) or evaluate(*a))
    path = tmp_path / "j.txt"
    if table is not None:
        path.write_text(table)
    argv = ["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2", "--points", "2",
            "--spectral", f"tabulated:{path}"]
    if out is not None:
        argv += [out, str(tmp_path / "no-such-dir" / "s.out")]
    rc = run_main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(path if out is None else tmp_path / "no-such-dir") in err
    assert points == []


def test_me_coupling_overflow_is_na_with_note(capsys):
    # lambda^2 (a_l - a_l')^2 overflows at lambda^2 Q = 1e308: NA and a note,
    # as high-t does where it cannot evaluate.
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1e300", "--to", "1e308",
                   "--points", "2", "--methods", "me"])
    assert rc == 0
    last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert last[1:6] == ["NA"] * 5
    assert last[-1].startswith("me: ") and "overflows" in last[-1]


def test_coupling_overflow_is_one_note_for_every_route(capsys):
    # lambda^2 (a_l - a_l')^2 is formed, and refused where it overflows, in
    # one place that every coupling route goes through.
    rc = run_main(["sweep", "--sweep", "beta", "--from", "1", "--to", "2", "--points", "2",
                   "--lambda2q", "1e308", "--methods", "exact,high-t,series,me"])
    assert rc == 0
    for row in capsys.readouterr().out.strip().split("\n")[1:]:
        cells = row.split(",")
        assert cells[1:21] == ["NA"] * 20
        note = "coupling lambda^2 (a_l - a_l')^2 overflows at lambda = 1e+154"
        assert cells[-1] == "; ".join(f"{m}: {note}" for m in ("exact", "high-t", "series", "me"))


def test_natural_coupling_overflow_is_na_with_the_same_note(tmp_path, capsys):
    # Under Natural the pseudo energies carry lambda^2 a_l^2 Q. With Q = 0.01,
    # lambda^2 Q = 1e308 puts lambda past the double range, and every route,
    # zeroth included, gives the coupling note (zeroth gave a ValidationError).
    table = tmp_path / "j.txt"
    table.write_text("0 0\n1 0.01\n")
    methods = ("exact", "high-t", "series", "me", "zeroth")
    rc = run_main(["sweep", "--sweep", "beta", "--from", "1", "--to", "2", "--points", "2",
                   "--lambda2q", "1e308", "--spectral", f"tabulated:{table}",
                   "--convention", "natural", "--methods", ",".join(methods)])
    assert rc == 0
    note = "coupling lambda^2 (a_l - a_l')^2 overflows at lambda = inf"
    for row in capsys.readouterr().out.strip().split("\n")[1:]:
        cells = row.split(",")
        assert cells[1:26] == ["NA"] * 25
        assert cells[-1] == "; ".join(f"{m}: {note}" for m in methods)


@pytest.mark.parametrize(
    "argv",
    [
        ["--methods", "oracle,high-t", "--fock-cutoff", "5", "--beta", "2000"],
        ["--methods", "oracle,high-t", "--fock-cutoff", "5", "--beta", "1e-20"],
        ["--methods", "oracle,high-t", "--fock-cutoff", "5", "--omega-c", "1e-18"],
        ["--methods", "me,high-t", "--beta", "1e-200"],
    ],
    ids=["oracle-beta-2000", "oracle-beta-1e-20", "oracle-omega-c-1e-18", "me-beta-1e-200"],
)
def test_extreme_beta_and_cutoff_sweeps_write_every_row(argv, tmp_path, capsys):
    # The oracle's partition functions overflowed, underflowed or divided by
    # zero here, and me's (2 pi/beta)^3 overflowed, each ending the sweep.
    out = tmp_path / "s.csv"
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2", "--points", "2",
                   "--out", str(out), *argv])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    header, *rows = out.read_text().strip().split("\n")
    assert len(rows) == 2
    if argv[1] == "me,high-t":
        me = [i for i, name in enumerate(header.split(",")) if name.startswith("me_")]
        for row in rows:
            cells = row.split(",")
            assert [cells[i] for i in me] == ["NA"] * len(me)
            assert cells[-1].startswith("me: beta = 1e-200 is too small")


def test_exact_past_its_coupling_bound_is_na_with_note(capsys):
    # x = lambda^2 (a_l - a_l')^2 Q beta = 4e6 is inside the bound and 4e10 past it.
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1e6", "--to", "1e10",
                   "--points", "2", "--methods", "exact"])
    assert rc == 0
    inside, past = (r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:])
    assert all(math.isfinite(float(c)) for c in inside[1:6]) and inside[-1] == ""
    assert past[1:6] == ["NA"] * 5
    assert past[-1].startswith("exact: f_exact is refused at lambda^2")


def test_me_past_its_node_cap_is_na_with_note(monkeypatch, capsys):
    # At lambda^2 Q = 1 and 2 the transform needs 257 nodes (G is finite and
    # nondecreasing there), so with the cap lowered to 129 the cap is what
    # stops both points: NA and a note.
    monkeypatch.setattr(comparator, "_RULE_MAX_NODES", 129)
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2",
                   "--points", "2", "--methods", "me"])
    assert rc == 0
    for row in capsys.readouterr().out.strip().split("\n")[1:]:
        cells = row.split(",")
        assert cells[1:6] == ["NA"] * 5
        assert cells[-1].startswith("me: ") and "off at 129 nodes" in cells[-1]


def test_me_at_lambda2q_1e7_is_na_with_cap_note(capsys):
    # At lambda^2 Q = 1e6 the rule converges on 16385 nodes, the cap; at 1e7
    # it would need 32769, so that cell is NA and its note names the cap.
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1e6", "--to", "1e7",
                   "--points", "2", "--methods", "me"])
    assert rc == 0
    inside, past = (r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:])
    assert all(math.isfinite(float(c)) for c in inside[1:6]) and inside[-1] == ""
    assert past[1:6] == ["NA"] * 5
    assert past[-1].startswith("me: ") and "off at 16385 nodes" in past[-1]


def test_me_non_finite_g_is_na_with_note(capsys):
    # At omega_c = 1e-300 the cut's ladder ends at tau = 4e300 and starts
    # 1.5^48 below it, where Re G overflows: NA and a note, before the rule
    # evaluates G at any of its nodes.
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2",
                   "--points", "2", "--omega-c", "1e-300", "--methods", "me"])
    assert rc == 0
    captured = capsys.readouterr()
    last = captured.out.strip().split("\n")[-1].split(",")
    assert last[1:6] == ["NA"] * 5
    assert last[-1].startswith("me: ") and "not finite" in last[-1]
    assert captured.err == ""


def test_exact_at_huge_omega_c_is_na_with_note(capsys):
    # Lorentz-Drude K(u) is refused past omega_c beta = 1e10, where its
    # quadrature drifts (0.95 relative at 1e146 when it was not refused): the
    # cells are NA plus a note, and the run still exits 0. At 1e9 they are
    # numbers.
    for wc, refused in (("1e9", False), ("1e146", True)):
        rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2",
                       "--points", "2", "--omega-c", wc, "--methods", "exact"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        for row in captured.out.strip().split("\n")[1:]:
            cells = row.split(",")
            if refused:
                assert cells[1:6] == ["NA"] * 5
                assert cells[-1].startswith("exact: ") and "refused at omega_c beta" in cells[-1]
            else:
                assert all(math.isfinite(float(c)) for c in cells[1:6])
                assert cells[-1] == ""


def test_exact_at_tiny_omega_c_is_the_parabola_or_na_with_note(capsys):
    # K(u) is the parabola Q u (1 - u/beta) as omega_c -> 0, where high-t is
    # exact: at omega_c = 1e-200 the two agree. Below about 1e-305 the K
    # nodes' w are subnormal, the per-w weight overflows, and the quadrature
    # stops on that call: the cell is NA plus a note.
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2",
                   "--points", "2", "--omega-c", "1e-200", "--methods", "exact,high-t"])
    assert rc == 0
    for row in capsys.readouterr().out.strip().split("\n")[1:]:
        cells = [float(c) for c in row.split(",")[1:11]]
        assert cells[:5] == pytest.approx(cells[5:], rel=1e-13, abs=1e-15)
        assert row.endswith(",")
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2",
                   "--points", "2", "--omega-c", "1e-320", "--methods", "exact"])
    assert rc == 0
    last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert last[1:6] == ["NA"] * 5
    assert last[-1].startswith("exact: ") and "not finite" in last[-1]


def test_oracle_convergence_flags_reach_the_note(tmp_path):
    # At beta = 1e-20 the thermal occupancy is ~1e20 against a Fock cutoff of
    # 5, and cutoff 5 leaves no reduced-cutoff re-run: both flags are set, and
    # the note says so next to the oracle's numbers.
    out = tmp_path / "flags.csv"
    rc = run_main(["sweep", "--sweep", "lambda2Q", "--from", "1", "--to", "2", "--points", "2",
                   "--methods", "oracle,high-t", "--fock-cutoff", "5", "--beta", "1e-20",
                   "--out", str(out)])
    assert rc == 0
    for row in out.read_text().strip().split("\n")[1:]:
        cells = row.split(",")
        assert "NA" not in cells
        assert cells[-1] == "oracle: non_converged and truncation_suspect at Fock cutoff 5"


def test_numerics_failure_exit_3(tmp_path, monkeypatch, capsys):
    def boom(spec):
        raise NumericsError("synthetic")

    monkeypatch.setattr(cli, "run_sweep", boom)
    rc = run_main(["sweep", "--sweep", "beta", "--from", "0.5", "--to", "1.0",
                   "--points", "2"])
    assert rc == 3
    capsys.readouterr()


def test_verify_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = run_main(["verify", "dawson", "kernel-symmetry", "reorganization", "hermiticity",
                   "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    names = [r["check"] for r in report["checks"]]
    assert names == ["dawson", "kernel-symmetry", "reorganization", "hermiticity"]
    for r in report["checks"]:
        assert r["measured"] < r["tolerance"]


def test_verify_me_against_exact():
    # Every check, by name; me-vs-exact holds the ME route to the exact one,
    # at beta w_c = 2 pi among others.
    assert list(cli._CHECKS) == ["identity-grid", "kernel-symmetry", "hermiticity",
                                 "dawson", "reorganization", "me-vs-exact"]
    (row,) = cli.run_verify(["me-vs-exact"])["checks"]
    assert row["passed"] and row["measured"] < 1e-12


def test_verify_detects_injected_fault(monkeypatch, capsys):
    import meanforce.oracle

    def broken(bd, a_l, a_l2, lam, beta, u):
        return 1.0, 2.0

    monkeypatch.setattr(meanforce.oracle, "verify_trace_identity", broken)
    rc = run_main(["verify", "identity-grid"])
    captured = capsys.readouterr()
    assert rc == 2
    report = json.loads(captured.out)
    assert report["all_passed"] is False
    assert report["checks"][0]["measured"] == pytest.approx(0.5)


def test_verify_empty_check_list_from_config(tmp_path, capsys):
    conf = tmp_path / "verify.ini"
    conf.write_text("[verify]\nchecks =\n")
    rc = run_main(["verify", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report == {"checks": [], "all_passed": True}


def test_run_verify_rejects_unknown_names():
    with pytest.raises(ValidationError):
        cli.run_verify(["nonesuch"])


def test_missing_config_file_exit_1(capsys):
    rc = run_main(["sweep", "--config", "/nonexistent/path.ini"])
    assert rc == 1
    capsys.readouterr()


def test_cli_import_leaves_network_modules_unloaded():
    # The CLI needs no URL, mail, HTTP or TLS code; importing it must not pull
    # those in (each costs import time in every sweep and verify run).
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, meanforce.cli; "
        "print(','.join(m for m in ('urllib.request', 'ssl', 'email', 'http.client')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == ""
