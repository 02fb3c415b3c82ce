"""The public surface: every name a module exports resolves, and the
benchmark's trace hooks install on the real modules and come off again."""

import importlib
import inspect
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import dtnfem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKED = ("cli", "harness", "analytic", "solve", "assembly")


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"dtnfem.{info.name}")
               for info in pkgutil.iter_modules(dtnfem.__path__)]
    assert len(modules) >= 9
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_benchmark_trace_hooks_install_and_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    mods = {name: importlib.import_module(f"dtnfem.{name}")
            for name in HOOKED}
    # the DtN hook reads the matrix's key from its positional arguments
    assert list(inspect.signature(
        mods["assembly"].dtn_ops.assemble_dtn_matrix).parameters) \
        == ["trace", "k", "radius", "order"]
    workload = SimpleNamespace(cli=mods["cli"], harness=mods["harness"],
                               analytic=mods["analytic"],
                               solve_mod=mods["solve"],
                               assembly=mods["assembly"])
    rec = worker.Recorder(tracing=True)
    try:
        worker.trace_hooks(rec, workload)
        hooks = list(rec._undo)
        assert hooks
        for owner, attr, original in hooks:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        mods["harness"].build_mesh_pair(1.0, 2.0, 16, 0)
        assert "mesh.build" in {span[0] for span in rec.spans}
    finally:
        rec.unwrap_all()
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original
