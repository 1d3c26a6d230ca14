"""Span tracing at meanforce's layer boundaries, installed from outside the package.

Each boundary is a module attribute (a function bound in one module) that is
replaced by a timing wrapper for the traced round only and restored by
``Tracer.remove``.  A boundary that no longer exists is recorded as absent and
its metrics read 0, so a later refactor degrades the report instead of
breaking it.

A span is ``(id, name, start, end, parent, point, n)``: ``parent`` is the id
of the span that was open when this one started, ``point`` the sweep point it
belongs to, and ``n`` one work count measured at the boundary (GK15 panels, u
or tau nodes, matrix dimension, ...).  Spans stay in memory and are written
as JSON lines when the round ends; every per-layer metric is derived from them
afterwards, apart from ``spectral.matsubara.term_nodes``, which is counted at a
boundary that gets no span of its own (``Tracer._count_terms``).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict


def _len_arg(i):
    def count(args, kwargs, result):
        return len(args[i])

    return count


def _panels(args, kwargs, result):
    return result.evaluations // 15  # integrate_finite counts 15 nodes per GK15 panel


def _spline_nodes(args, kwargs, result):
    return result[2]


def _transform_evaluations(args, kwargs, result):
    return sum(p["evaluations"] for p in result.diagnostics["per_pair"].values())


def _f_evaluations(args, kwargs, result):
    return result.evaluations


def _solve_dim(args, kwargs, result):
    sys, bd, _bath, _conv, cutoff = args[:5]
    return sys.dim * (cutoff + 1) ** bd.n_modes


# (module, attribute, span name, work count or None).  integrate_finite is
# bound by name in four modules; each binding is wrapped so that every call
# passes through exactly one wrapper.
_BOUNDARIES = (
    ("special", "integrate_finite", "special.integrate_finite", _panels),
    ("spectral", "integrate_finite", "special.integrate_finite", _panels),
    ("steady", "integrate_finite", "special.integrate_finite", _panels),
    ("comparator", "integrate_finite", "special.integrate_finite", _panels),
    ("steady", "dawson", "special.dawson", None),
    ("steady", "_overlap_kernel_batch", "spectral.k_batch", _len_arg(2)),
    ("comparator", "_g_batch", "spectral.g_table", _len_arg(2)),
    ("comparator", "_find_tau_max", "comparator.tau_probe", None),
    ("comparator", "_build_g_splines", "comparator.g_spline", _spline_nodes),
    ("comparator", "me_steady_state", "comparator.me", _transform_evaluations),
    ("cli", "me_steady_state", "comparator.me", _transform_evaluations),
    ("steady", "steady_state", "steady.steady_state", None),
    ("steady", "f_exact", "steady.f_exact", _f_evaluations),
    ("oracle", "_reduced_thermal_state", "oracle.solve", _solve_dim),
    ("oracle", "build_total_hamiltonian", "oracle.hamiltonian", None),
    ("oracle", "matrix_exp_hermitian", "linalg.matrix_exp", None),
    ("oracle", "partial_trace", "linalg.partial_trace", None),
    ("cli", "_evaluate_point", "cli.evaluate_point", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
)


class Tracer:
    """Records spans for one traced round; ``point`` is set by the workload."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.point = None
        self.term_nodes = 0
        self.absent: list[str] = []
        self._undo: list = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"meanforce.{m}") for m, *_ in _BOUNDARIES}
        for mod_name, attr, name, count in _BOUNDARIES:
            self._wrap(modules[mod_name], attr, name, count)
        self._count_terms(modules["spectral"])

    def remove(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def _wrap(self, module, attr, name, count) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.point, 0)
            if count is not None:
                spans[sid] = spans[sid][:6] + (int(count(args, kwargs, result)),)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def _count_terms(self, spectral) -> None:
        """Matsubara kernel size: poles x tau nodes per _mu_exp call, no span."""
        orig = getattr(spectral, "_mu_exp", None)
        if orig is None:
            self.absent.append(f"{spectral.__name__}._mu_exp")
            return

        def wrapper(kappa, tau):
            self.term_nodes += len(kappa) * len(tau)
            return orig(kappa, tau)

        spectral._mu_exp = wrapper
        self._undo.append((spectral, "_mu_exp", orig))

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "point", "n")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans, term_nodes: int) -> dict:
    """Per-layer counts and self times of one traced round."""
    child_time = defaultdict(float)
    for sid, name, start, end, parent, point, n in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    work = Counter()
    max_n = Counter()
    for sid, name, start, end, parent, point, n in spans:
        self_s[name] += (end - start) - child_time[sid]
        calls[name] += 1
        work[name] += n
        max_n[name] = max(max_n[name], n)

    # tau nodes evaluated while building splines: the base of useful_ratio.
    by_id = {s[0]: s for s in spans}

    def inside_build(span):
        while span[4] is not None:
            span = by_id[span[4]]
            if span[1] == "comparator.g_spline":
                return True
        return False

    evaluated = sum(s[6] for s in spans if s[1] == "spectral.g_table" and inside_build(s))
    kept = work["comparator.g_spline"]
    solves = [s[6] for s in spans if s[1] == "oracle.solve"]
    return {
        "special.integrate_finite.calls": calls["special.integrate_finite"],
        "special.integrate_finite.panels": work["special.integrate_finite"],
        "special.integrate_finite.self_s": self_s["special.integrate_finite"],
        "special.dawson.calls": calls["special.dawson"],
        "special.dawson.self_s": self_s["special.dawson"],
        "spectral.k_batch.calls": calls["spectral.k_batch"],
        "spectral.k_batch.u_nodes": work["spectral.k_batch"],
        "spectral.k_batch.self_s": self_s["spectral.k_batch"],
        "spectral.g_table.calls": calls["spectral.g_table"],
        "spectral.g_table.tau_nodes": work["spectral.g_table"],
        "spectral.g_table.self_s": self_s["spectral.g_table"],
        "spectral.matsubara.term_nodes": term_nodes,
        "comparator.tau_probe.calls": calls["comparator.tau_probe"],
        "comparator.g_spline.builds": calls["comparator.g_spline"],
        "comparator.g_spline.nodes_kept": kept,
        "comparator.g_spline.nodes_evaluated": evaluated,
        "comparator.g_spline.useful_ratio": kept / evaluated if evaluated else 0.0,
        "comparator.g_spline.self_s": self_s["comparator.g_spline"],
        "comparator.transform.evaluations": work["comparator.me"],
        "comparator.me.self_s": self_s["comparator.me"],
        "steady.f_exact.calls": calls["steady.f_exact"],
        "steady.f_exact.evaluations": work["steady.f_exact"],
        "steady.steady_state.self_s": self_s["steady.steady_state"],
        "oracle.solve.calls": calls["oracle.solve"],
        "oracle.solve.dim_max": max_n["oracle.solve"],
        "oracle.solve.self_s": self_s["oracle.solve"],
        "oracle.solve.flops_computed": sum(d**3 for d in solves),
        "oracle.hamiltonian.self_s": self_s["oracle.hamiltonian"],
        "linalg.matrix_exp.self_s": self_s["linalg.matrix_exp"],
        "linalg.partial_trace.self_s": self_s["linalg.partial_trace"],
        "cli.evaluate_point.self_s": self_s["cli.evaluate_point"],
        "cli.run_sweep.self_s": self_s["cli.run_sweep"],
    }
