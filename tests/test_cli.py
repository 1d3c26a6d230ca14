import json
import math
import xml.etree.ElementTree as ET

import pytest

from meanforce import cli
from meanforce.errors import NumericsError, ValidationError
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


def test_lambda_sweep_bytes_do_not_depend_on_spline_reuse(monkeypatch):
    # Along a lambda^2 Q sweep the ME route reuses one G spline. A sweep that
    # builds it at every point, one that builds it at the first point only,
    # and a second run that finds it already built give the same bytes.
    from meanforce import comparator

    spec = cli.SweepSpec(
        swept="lambda2Q", lo=0.2, hi=10.0, points=5, delta=0.7, beta=1.0,
        omega_c=0.25, lambda2q=1.0, spectral="lorentz-drude", methods=("me",),
        convention=RenormalizationConvention.RENORMALIZED,
    )
    sd = LorentzDrude(1.0, 0.25)
    monkeypatch.setattr(cli, "_spectral_density", lambda name, omega_c: sd)
    builds = []
    build, point = comparator._build_g_splines, cli._evaluate_point

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def cold_point(*args):
        comparator._last_spline = None
        return point(*args)

    monkeypatch.setattr(comparator, "_build_g_splines", counted_build)
    monkeypatch.setattr(cli, "_evaluate_point", cold_point)
    cold = cli.run_sweep(spec)
    assert len(builds) == 5
    monkeypatch.setattr(cli, "_evaluate_point", point)
    monkeypatch.setattr(comparator, "_last_spline", None)
    first = cli.run_sweep(spec)
    assert len(builds) == 6
    second = cli.run_sweep(spec)
    assert len(builds) == 6
    assert first == second == cold
    assert "NA" not in cold


def test_oracle_over_cap_yields_na_cells(tmp_path):
    out = tmp_path / "na.csv"
    rc = run_main([
        "sweep", "--sweep", "lambda2Q", "--from", "1.0", "--to", "2.0",
        "--points", "2", "--methods", "oracle",
        "--oracle-modes", "3", "--fock-cutoff", "20", "--out", str(out),
    ])
    assert rc == 0  # per-point failures degrade to NA, not a crash
    lines = out.read_text().strip().split("\n")
    row = lines[1].split(",")
    assert row[1] == "NA"
    assert "exceeds the cap" in row[-1]
    assert "," not in row[-1]


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


def test_unknown_sweep_config_key_exit_1(tmp_path, capsys):
    conf = tmp_path / "sweep.ini"
    conf.write_text("[sweep]\npreset = fig1a\npoints = 3\npionts = 7\n")
    rc = run_main(["sweep", "--config", str(conf)])
    assert rc == 1
    assert "pionts" in capsys.readouterr().err


def test_unknown_verify_config_key_exit_1(tmp_path, capsys):
    conf = tmp_path / "verify.ini"
    conf.write_text("[verify]\nchecks = dawson\ncheck = hermiticity\n")
    rc = run_main(["verify", "--config", str(conf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'check'" in err and "'checks'" not in err


def test_malformed_config_value_exit_1(tmp_path, capsys):
    conf = tmp_path / "sweep.ini"
    conf.write_text("[sweep]\npreset = fig1a\npoints = abc\n")
    rc = run_main(["sweep", "--config", str(conf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "points" in err and "Traceback" not in err


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
    ],
    ids=["negative-lambda2Q-from", "negative-lambda2q", "nan-lambda2q", "inf-to",
         "minus-inf-from", "nan-from"],
)
def test_negative_or_nonfinite_sweep_input_exit_1(argv, capsys):
    rc = run_main(["sweep", *argv, "--points", "2", "--methods", "high-t"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
    rc = run_main(["verify", "dawson", "kernel-symmetry", "reorganization",
                   "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    names = [r["check"] for r in report["checks"]]
    assert names == ["dawson", "kernel-symmetry", "reorganization"]
    for r in report["checks"]:
        assert r["measured"] < r["tolerance"]


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
