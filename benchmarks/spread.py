"""Run the benchmark over several seeds and report medians, quartiles and spreads.

    python3 benchmarks/spread.py --seeds 1-10
    python3 benchmarks/spread.py --seeds 1 --trace          # layer shares of wall_s

Each seed runs every workload of BENCHMARK.json once through run.py, for its
run_seconds, in a fresh process; odd
seeds run the workloads in reverse order so that no workload always follows
the same neighbour.  For each end-to-end metric the report gives the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  With
--trace it gives each layer's self time as a share of the traced wall time.
The table goes to standard output and the raw reports to
benchmarks/results/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().split("\n")[-1])
    report["elapsed_s"] = time.perf_counter() - t0
    return report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,4,7")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    reports: dict[str, list] = {w: [] for w in names}
    for i, seed in enumerate(_seeds(args.seeds)):
        for w in (names if i % 2 == 0 else names[::-1]):
            r = _run(w, seed, spec["run_seconds"], args.trace)
            reports[w].append(r | {"seed": seed})
            print(f"# {w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"elapsed={r['elapsed_s']:.1f}s", file=sys.stderr, flush=True)

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"spread-{stamp}{'-trace' if args.trace else ''}.json").write_text(json.dumps(reports, indent=1) + "\n")

    for w, runs in reports.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n## {w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {shares}, longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        if args.trace:
            _layer_shares(runs)
            continue
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            print(f"| {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {m['bound']} |")
    return 0


def _layer_shares(runs: list) -> None:
    """Self time of each layer as a share of the traced round's wall time."""
    print("| per-layer metric | median | share of traced wall_s |")
    print("|---|---|---|")
    wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in runs)
    attributed = 0.0
    for name in runs[0]["metrics"]:
        med = statistics.median(r["metrics"][name]["value"] for r in runs)
        share = ""
        if name.endswith("self_s"):
            share = f"{med / wall:.1%}"
            attributed += med
        print(f"| {name} | {med:.6g} | {share} |")
    print(f"| outside every span | {wall - attributed:.6g} | {(wall - attributed) / wall:.1%} |")


if __name__ == "__main__":
    raise SystemExit(main())
