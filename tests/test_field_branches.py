"""Every comparison on the field outside hermitian.py, read from the
AST, must be one of the branches that hermitian's module docstring
lists, and every branch listed there must still be in the code: a
comparison on `.field`, `.field_tag` or `.units`, named by its module,
the function it sits in, and the attribute it compares."""

import ast
import pathlib
import re

import loxpairs
from loxpairs import hermitian

PACKAGE = pathlib.Path(loxpairs.__file__).parent
ATTRS = ("field", "field_tag", "units")
LISTED = re.compile(r"^ {4}(\w+)\.(\w+) +(\w+) ", re.MULTILINE)


def _comparisons(tree: ast.AST, stem: str, where: str = ""):
    """(module.function, attribute) of every comparison on ATTRS in
    tree, by the innermost function that holds it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _comparisons(node, stem, f"{stem}.{node.name}")
            continue
        if isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Attribute) and side.attr in ATTRS:
                    yield where or stem, side.attr
        yield from _comparisons(node, stem, where)


def test_field_branches_are_the_listed_ones():
    found = sorted(
        branch for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "hermitian.py"
        for branch in _comparisons(ast.parse(path.read_text()), path.stem))
    listed = sorted((f"{module}.{function}", attr) for module, function, attr
                    in LISTED.findall(hermitian.__doc__))
    assert found == listed


def test_six_field_branches_and_one_units_split():
    listed = [attr for *_, attr in LISTED.findall(hermitian.__doc__)]
    assert sorted(listed) == ["field"] * 6 + ["units"]
