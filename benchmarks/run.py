"""Benchmark entry point: one workload, whole rounds for --seconds, checked outputs.

    python3 benchmarks/run.py --workload me-lambda-sweep --seed 1 --seconds 35 --trace 0

Run from the repository root.  Every round is a fresh interpreter
(worker.py) with BLAS pinned to one thread, so no cache or thread pool
survives from one round to the next.  Rounds repeat while the next one would
end within --seconds at the pace so far, and at least MIN_ROUNDS run.  Every
round repeats the same operations on the same seeded inputs and must return
bit-identical outputs.
The outputs of the first round are then checked against references computed
here, apart from meanforce and outside every timed region (checks.py).

--trace 0 reports the end-to-end metrics: medians over rounds of round wall
time and peak RSS, the median point time over all points, and the median
set-up CPU time over the rounds and the SETUPS_PER_ROUND set-up-only workers
started after each round.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds (medians), the process CPU time of the untraced
ones and the tracing overhead (traced minus untraced median wall time).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.  Every
round's measurements, the check table and the span files go to
benchmarks/results/.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _k in BLAS_ENV:  # before anything imports numpy, here or in a worker
    os.environ[_k] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
ROUND_TIMEOUT_S = 150
SETUPS_PER_ROUND = 2  # untraced runs: set-up-only workers after each round


def _spawn_round(workload: str, seed: int, trace_out: Path | None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd += ["--setup-only"]
    spawned = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)],
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {workload} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    import workloads  # after the path is known; pulls in numpy

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "meanforce" / "__init__.py").is_file():
        print(f"no meanforce sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    rounds: list[dict] = []
    setups: list[dict] = []  # set-up-only workers; rounds record their own set-up too
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        trace_out = RESULTS / f"{stem}-round{len(rounds)}.spans.jsonl" if traced else None
        rounds.append(_spawn_round(args.workload, args.seed, trace_out) | {"traced": traced})
        if not trace:
            setups += [_spawn_round(args.workload, args.seed, None, setup_only=True)
                       for _ in range(SETUPS_PER_ROUND)]
        n_traced = sum(r["traced"] for r in rounds)
        enough = len(rounds) >= MIN_ROUNDS and (not trace or n_traced >= MIN_TRACED_ROUNDS)
        elapsed = time.perf_counter() - start
        # Start no round that would end, at the mean pace so far, past --seconds.
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    import checks  # scipy; references run after every timed round

    p = workloads.params(args.workload, args.seed)
    identical = all(r["outputs"] == rounds[0]["outputs"] for r in rounds)
    table = checks.check(args.workload, p, rounds[0]["outputs"])
    correct = identical and all(row["ok"] for row in table)

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    med = statistics.median
    if trace:
        layers = {k: med(r["layers"][k] for r in traced_rounds) for k in traced_rounds[0]["layers"]}
        counts_repeat = all(
            r["layers"][k] == traced_rounds[0]["layers"][k]
            for r in traced_rounds for k in r["layers"] if not k.endswith("_s")
        )
        values = layers | {
            "proc.cpu_s": med(r["cpu_s"] for r in untraced),
            "trace.wall_s": med(r["wall_s"] for r in traced_rounds),
            "trace.overhead_s": med(r["wall_s"] for r in traced_rounds) - med(r["wall_s"] for r in untraced),
        }
    else:
        counts_repeat = None
        values = {
            "setup_s": med(r["setup_s"] for r in rounds + setups),
            "wall_s": med(r["wall_s"] for r in untraced),
            "point_p50_s": med(t for r in untraced for t in r["point_s"]),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
    metrics = {}
    for m in _metric_specs(trace):
        if m["name"] not in values:
            print(f"metric {m['name']} in BENCHMARK.json is not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    report = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "params": p, "checks": table, "rounds_identical": identical,
        "trace_counts_repeat": counts_repeat, "absent_boundaries": traced_rounds[0]["absent"] if trace else [],
        "rounds": [{k: v for k, v in r.items() if k != "outputs"} for r in rounds],
        "setups": setups,
        "report": report,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for row in table:
        if not row["ok"]:
            print(f"check failed: {row}", file=sys.stderr)
    if not identical:
        print("rounds returned different outputs", file=sys.stderr)
    if counts_repeat is False:
        print("traced rounds counted different work", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
