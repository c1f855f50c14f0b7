"""Every module-level import in the package must be used by its module.
No linter ships with the environment, so the check reads the sources
with ast: a name bound by a top-level import counts as used when the
module loads it somewhere or lists it in __all__."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loxpairs"


def _imported(tree: ast.Module):
    """The names bound by the top-level imports, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree: ast.Module):
    """The names the module loads, and the strings of its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def _unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used(tree)
        unused += [f"{path.stem}.{name}" for name in _imported(tree)
                   if name not in used]
    return unused


def test_every_module_level_import_is_used():
    unused = _unused_imports()
    assert not unused, f"imports no code uses: {unused}"
