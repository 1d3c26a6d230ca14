"""One round of one workload in a fresh interpreter; prints one JSON line.

Started by run.py, which pins BLAS to one thread in the environment.
``setup_s`` is the CPU time of this process from its creation until the
inputs are ready: interpreter start, imports and input construction.  The
process runs on one thread, so this is its set-up wall time less any time
it waited for a core or for the parent's spawn.  ``setup_wall_s`` is the
wall time from the perf_counter reading that run.py takes just before the
spawn (CLOCK_MONOTONIC on Linux, which both processes share); it is kept
for the record.  With --setup-only the worker stops once its inputs are
ready and runs no operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace-out", default=None, help="traced round: write spans here")
    ap.add_argument("--setup-only", action="store_true", help="build the inputs, run nothing")
    args = ap.parse_args()
    if any(os.environ.get(k) != "1" for k in BLAS_ENV):
        print(f"worker.py needs {', '.join(BLAS_ENV)} set to 1; start it through run.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parent / "src"))

    import workloads

    p = workloads.params(args.workload, args.seed)
    round_ = workloads.build(args.workload, p)
    setup_wall_s = time.perf_counter() - args.spawned
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    clock = workloads.PointClock(tracer)
    cpu0 = os.times()
    t0 = time.perf_counter()
    outputs, failed, attempted = round_(clock)
    wall_s = time.perf_counter() - t0
    cpu1 = os.times()

    result = {
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, "wall_s": wall_s, "point_s": clock.times,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "sys_s": cpu1.system - cpu0.system,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": failed, "attempted": attempted, "outputs": outputs,
    }
    if tracer is not None:
        tracer.remove()
        tracer.write_jsonl(args.trace_out)
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.term_nodes)
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
