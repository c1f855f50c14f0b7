"""Every layer the benchmark traces must still exist in the package.

benchmark/run.py lists in HOME the functions each workload must reach
under --trace 1, and benchmark/tracer.py wraps the public functions of
its LAYERS modules plus the callables named in EXTRA.  A refactor that
renames or moves one of them breaks only the traced benchmark run, so
this test reads both tables with ast (importing and changing nothing
under benchmark/) and resolves every name against loxpairs.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmark"


def _assigned(path: pathlib.Path, name: str) -> ast.expr:
    """The value node of the module-level assignment to name."""
    for node in ast.parse(path.read_text()).body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


HOME = [k.value for k in _assigned(BENCH / "run.py", "HOME").keys]
EXTRA = ast.literal_eval(_assigned(BENCH / "tracer.py", "EXTRA"))
LAYERS = ast.literal_eval(_assigned(BENCH / "tracer.py", "LAYERS"))


def test_tables_are_read():
    assert "hermitian.inner" in HOME and "quat.align_sp1" in HOME
    assert "hermitian.inner" in EXTRA and "quat" in LAYERS


@pytest.mark.parametrize("name", HOME)
def test_traced_layer_resolves(name):
    if name in EXTRA:
        layer, owner, attr = EXTRA[name]
        mod = importlib.import_module(f"loxpairs.{layer}")
        holder = getattr(mod, owner) if owner else mod
        assert callable(getattr(holder, attr, None)), \
            f"{name}: loxpairs.{layer}.{owner}.{attr} is gone"
        return
    layer, attr = name.split(".")
    assert layer in LAYERS, f"{name}: the tracer does not wrap {layer}"
    mod = importlib.import_module(f"loxpairs.{layer}")
    fn = getattr(mod, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn) \
        and fn.__module__ == mod.__name__, \
        f"{name} is not a public function of loxpairs.{layer}"
