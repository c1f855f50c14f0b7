"""Every defaulted parameter of a module-level function in the package
must be set by some call in src/, tests/ or benchmark/, by keyword or by
position.  A default that no caller changes is a constant, and belongs
next to the module constants that decide the same gate.  Every parameter
of every function in the package must be read in its body: a parameter
that nothing reads is a second copy of a datum the function takes from
elsewhere."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loxpairs"
CALLERS = ("src", "tests", "benchmark")


def _defaulted(fn: ast.FunctionDef):
    """(name, position or None) of every parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults)
            if d is not None]
    return out


def _settings(call: ast.Call):
    """(positions set, keywords set, sets everything) of one call; a
    starred argument or ** mapping may set any parameter after it."""
    starred = next((i for i, a in enumerate(call.args)
                    if isinstance(a, ast.Starred)), None)
    keywords = {k.arg for k in call.keywords}
    open_ended = None in keywords
    n_pos = len(call.args) if starred is None else starred
    return n_pos, keywords, open_ended or starred is not None


def _unused_parameters():
    calls = {}
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name is not None:
                    calls.setdefault(name, []).append(_settings(node))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for arg, pos in _defaulted(fn):
                if not any(anything or arg in keywords
                           or (pos is not None and n_pos > pos)
                           for n_pos, keywords, anything
                           in calls.get(fn.name, [])):
                    unused.append(f"{path.stem}.{fn.name}({arg})")
    return unused


def test_every_defaulted_parameter_is_set_by_some_call():
    unused = _unused_parameters()
    assert not unused, f"parameters no call sets: {unused}"


def _unread_parameters():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p})" for p in params
                       if p not in ("self", "cls") and p not in read]
    return unread


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert not unread, f"parameters no body reads: {unread}"
