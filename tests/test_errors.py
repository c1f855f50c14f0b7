"""Every exception class must be raised somewhere in the package, or be
one of the classes the CLI maps to an exit code."""

import ast
import inspect
import pathlib

import loxpairs
from loxpairs import errors

CLI_CLASSES = {"LoxpairsError", "DegenerateInputError", "VerificationFailed"}


def _raised_names():
    src = pathlib.Path(loxpairs.__file__).parent
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # spectral._gate(ok, exc, message) raises exc when an element
            # of its stack fails the gate
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "_gate":
                names.add(node.args[1].id)
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_or_caught_by_the_cli():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    dead = classes - _raised_names() - CLI_CLASSES
    assert not dead, f"exception classes never raised: {sorted(dead)}"
