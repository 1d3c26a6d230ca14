"""The benchmark's own tests: repeatable trace counts, and checks that can fail.

    python3 -m pytest benchmarks/test_bench.py

Each workload runs two traced rounds through worker.py (about 30 s in all on
one core); their work counts must match exactly, and the per-layer metrics
must follow from the span file alone.  Each workload's checker must pass the
real outputs and reject the same outputs with one value scaled by 1 + 1e-4.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
PERTURB = 1.0 + 1e-4


def _traced_round(workload: str, spans: Path) -> dict:
    env = os.environ | {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(SEED),
           "--trace-out", str(spans), "--spawned", repr(time.perf_counter())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=HERE.parent, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced rounds per workload, with their span files."""
    out = {}
    for w in workloads.WORKLOADS:
        d = tmp_path_factory.mktemp(w)
        out[w] = [(_traced_round(w, d / f"{i}.jsonl"), d / f"{i}.jsonl") for i in range(2)]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_counts_repeat_exactly(traced, workload):
    (first, spans_path), (second, _) = traced[workload]
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    for key in ("special.integrate_finite.panels", "spectral.matsubara.term_nodes",
                "spectral.g_table.tau_nodes", "comparator.g_spline.builds", "oracle.solve.calls",
                "oracle.solve.dim_max", "steady.f_exact.evaluations"):
        assert key in counts
    assert first["absent"] == []
    # Everything but the Matsubara count is derived from the span file alone.
    rows = [json.loads(line) for line in spans_path.read_text().splitlines()]
    spans = [tuple(r[k] for k in ("id", "name", "start", "end", "parent", "point", "n")) for r in rows]
    from_file = tracer.layer_metrics(spans, first["layers"]["spectral.matsubara.term_nodes"])
    assert from_file == pytest.approx(first["layers"], rel=1e-12, abs=1e-12)
    assert {s[5] for s in spans} == set(range(len(first["point_s"])))


def test_workloads_exercise_their_layers(traced):
    layers = {w: runs[0][0]["layers"] for w, runs in traced.items()}
    me, ml, orc = (layers[w] for w in workloads.WORKLOADS)
    assert me["comparator.g_spline.builds"] > 0 and me["cli.run_sweep.self_s"] > 0
    assert me["steady.f_exact.calls"] == 0 and me["oracle.solve.calls"] == 0
    assert ml["steady.f_exact.calls"] > 0 and ml["spectral.k_batch.calls"] > 0
    assert ml["comparator.g_spline.builds"] > 0 and ml["oracle.solve.calls"] == 0
    assert orc["oracle.solve.dim_max"] == 2000 and orc["spectral.g_table.calls"] == 0


def _csv_scale(csv_text: str, row: int, column: str) -> str:
    lines = csv_text.strip().split("\n")
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * PERTURB)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scale_offdiag(state: list) -> None:
    for part in state:  # real and imaginary parts
        part[0][1] *= PERTURB
        part[1][0] *= PERTURB


def _perturbations(workload: str, outputs: list):
    if workload == "me-lambda-sweep":
        for m in ("high_t", "series", "me"):
            yield m, [_csv_scale(outputs[0], 2, f"{m}_c_ss_real")]
    elif workload == "multilevel-beta-sweep":
        for m in ("exact", "high-t", "series", "me"):
            bad = copy.deepcopy(outputs)
            _scale_offdiag(bad[1][m]["state"])
            yield m, bad
        bad = copy.deepcopy(outputs)
        bad[0]["exact"]["f"][0][1] *= PERTURB  # detailed balance
        yield "exact f", bad
    else:
        for m in ("oracle", "exact"):
            bad = copy.deepcopy(outputs)
            _scale_offdiag(bad[0][m]["state"])
            yield m, bad


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_rejects_perturbed_result(traced, workload):
    outputs = traced[workload][0][0]["outputs"]
    p = workloads.params(workload, SEED)
    assert all(row["ok"] for row in checks.check(workload, p, outputs))
    for label, bad in _perturbations(workload, outputs):
        failed = [row["check"] for row in checks.check(workload, p, bad) if not row["ok"]]
        assert failed, f"{workload}: scaling {label} by 1 + 1e-4 went unnoticed"


def test_run_fails_without_sources(tmp_path):
    """In a tree with only BENCHMARK.json and the benchmark, no result is printed."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workloads.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
