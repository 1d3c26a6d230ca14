import ast
import importlib
import pkgutil
import runpy
from pathlib import Path

import meanforce


def test_every_public_name_resolves():
    for name in meanforce.__all__:
        getattr(meanforce, name)


def test_every_submodule_export_resolves():
    # A name left in a submodule's __all__ after its definition is gone fails here.
    for info in pkgutil.iter_modules(meanforce.__path__):
        module = importlib.import_module(f"meanforce.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"meanforce.{info.name}.__all__ names {missing}"


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# Boundaries the benchmark tracer still wraps although the package has
# dropped them; the tracer reads them as absent.
_STALE = {
    ("oracle", "partial_trace"), ("oracle", "matrix_exp_hermitian"), ("comparator", "integrate_finite"),
    ("comparator", "_build_g_splines"),
}


def _unresolved(pairs):
    """'module.attr' for each (module, attr) that meanforce.module lacks."""
    return [
        f"{m}.{attr}" for m, attr in sorted(pairs)
        if not hasattr(importlib.import_module(f"meanforce.{m}"), attr)
    ]


def test_benchmark_tracer_boundaries_resolve():
    # run_path compiles the source in memory and writes no bytecode cache.
    tracer = runpy.run_path(str(BENCHMARKS / "tracer.py"))
    seams = {(m, attr) for m, attr, *_ in tracer["_BOUNDARIES"]} | {("spectral", "_mu_exp")}
    missing = _unresolved(seams - _STALE)
    assert not missing, f"benchmarks/tracer.py wraps missing names {missing}"
    assert _unresolved(_STALE) == sorted(f"{m}.{attr}" for m, attr in _STALE)


def test_benchmark_workloads_names_resolve():
    modules = {"cli", "comparator", "oracle", "spectral", "steady"}
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    used = {
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    used |= {
        (node.module.removeprefix("meanforce."), alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.removeprefix("meanforce.") in modules
        for alias in node.names
    }
    assert used
    missing = _unresolved(used)
    assert not missing, f"benchmarks/workloads.py calls missing names {missing}"
