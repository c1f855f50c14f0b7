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

import numpy as np
import pytest

from conftest import null_lift

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


def _workloads(node: ast.expr) -> set:
    """The workloads of one HOME value: a tuple of names, or NAMES, the
    name of every workload."""
    if isinstance(node, ast.Name):
        return {k.value for k in
                _assigned(BENCH / "workloads.py", "WORKLOADS").keys}
    return set(ast.literal_eval(node))


HOME_OF = {k.value: _workloads(v) for k, v in
           zip(_assigned(BENCH / "run.py", "HOME").keys,
               _assigned(BENCH / "run.py", "HOME").values)}
DECIDE = sorted(name for name, where in HOME_OF.items()
                if where & {"decide", "decide-illcond"})


def _code(name: str):
    """The code object a traced layer runs."""
    if name in EXTRA:
        layer, owner, attr = EXTRA[name]
        mod = importlib.import_module(f"loxpairs.{layer}")
        fn = getattr(getattr(mod, owner) if owner else mod, attr)
    else:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"loxpairs.{layer}"), attr)
    return fn.__code__


def test_decide_layers_are_entered():
    # a layer that still resolves but is no longer called reads 0 calls
    # in the traced benchmark run; a conjugate and a non-conjugate
    # conjugacy_test per field, as the decide workloads run them, must
    # enter every layer HOME lists for decide or decide-illcond
    import sys

    from loxpairs.classify import conjugacy_test
    from loxpairs.generate import generate_pair
    from loxpairs.hermitian import HermitianSpace
    from loxpairs.qmatrix import conjugate_by
    assert {"spectral.eigen_frame", "hermitian.inner",
            "polys.aberth_roots"} <= set(DECIDE)
    cases = []
    for field in ("complex", "quaternion"):
        space = HermitianSpace(3, field)
        A, B = generate_pair(space, seed=3)
        rng = np.random.default_rng(3)
        C, Q = space.random_isometry(rng), space.random_isometry(rng)
        cases += [(space, A, B, conjugate_by(C, A), conjugate_by(C, B),
                   "verified"),
                  (space, A, B, conjugate_by(C, A), conjugate_by(Q, B),
                   "tuple")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    stages = []
    sys.setprofile(profile)
    try:
        for *args, _ in cases:
            stages.append(conjugacy_test(*args).stage)
    finally:
        sys.setprofile(None)
    assert stages == [case[-1] for case in cases]
    missing = [name for name in DECIDE if _code(name) not in entered]
    assert not missing, f"layers no decide op entered: {missing}"


QUADRUPLES = sorted(name for name, where in HOME_OF.items()
                    if "quadruples" in where)


def test_quadruples_layers_are_entered():
    # a congruent and a perturbed pair of quadruples per n and field, as
    # the quadruples workload draws them, must enter every layer HOME
    # lists for quadruples; inner is reached only through the completion
    # of the bases at n >= 4
    import sys

    from loxpairs.classify import boundary_quadruple_congruence
    from loxpairs.hermitian import HermitianSpace
    from loxpairs.qmatrix import QArray
    assert {"hermitian.inner", "quat.align_sp1",
            "classify.boundary_quadruple_congruence"} <= set(QUADRUPLES)
    rng = np.random.default_rng(5)

    cases = []
    for n in (3, 4, 5):
        for field in ("complex", "quaternion"):
            space = HermitianSpace(n, field)
            zs = [null_lift(space, rng) for _ in range(4)]
            U = space.random_isometry(rng)
            ws = [U @ z for z in zs]
            cases += [(space, zs, ws, True),
                      (space, zs, ws[:3] + [null_lift(space, rng)], False)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    found = []
    sys.setprofile(profile)
    try:
        for space, zs, ws, _ in cases:
            found.append(boundary_quadruple_congruence(space, zs, ws))
    finally:
        sys.setprofile(None)
    assert [isinstance(h, QArray) for h in found] \
        == [case[-1] for case in cases]
    missing = [name for name in QUADRUPLES if _code(name) not in entered]
    assert not missing, f"layers no quadruples op entered: {missing}"


def _method_args(path: pathlib.Path, cls: str, name: str):
    """The positional parameter names of method name of class cls, and
    whether it takes *args."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return ([a.arg for a in item.args.args],
                            item.args.vararg is not None)
    raise AssertionError(f"{path.name} defines no {cls}.{name}")


def test_refine_keeps_the_tracer_contract():
    # the traced benchmark calls Tracer._probe_refine(space, C, pairs,
    # *rest) with the arguments of every polish, before it runs, and
    # reads the polish as the layer classify.refine; the polish must
    # still take (space, C, pairs) and return (C, E), E one residual
    # X' - C X C^-1 per pair
    from loxpairs.generate import generate_pair
    from loxpairs.hermitian import HermitianSpace
    from loxpairs.qmatrix import QArray, conjugate_by
    layer, owner, attr = EXTRA["classify.refine"]
    assert owner is None
    fn = getattr(importlib.import_module(f"loxpairs.{layer}"), attr)
    args, rest = _method_args(BENCH / "tracer.py", "Tracer", "_probe_refine")
    assert args[0] == "self" and rest
    params = list(inspect.signature(fn).parameters.values())
    assert [p.name for p in params[:len(args) - 1]] == args[1:] \
        == ["space", "C", "pairs"]
    assert all(p.default is not p.empty or p.kind in (p.VAR_POSITIONAL,
                                                      p.VAR_KEYWORD)
               for p in params[len(args) - 1:])
    space = HermitianSpace(3, "quaternion")
    A, B = generate_pair(space, seed=2)
    Q = space.random_isometry(np.random.default_rng(2))
    pairs = [(A, conjugate_by(Q, A)), (B, conjugate_by(Q, B))]
    out = fn(space, Q, pairs)
    assert isinstance(out, tuple) and len(out) == 2
    C, E = out
    assert isinstance(C, QArray) and C.shape == (space.dim, space.dim)
    assert len(E) == len(pairs)
    Cinv = C.inverse()
    for e, (X, Xp) in zip(E, pairs):
        assert isinstance(e, QArray)
        assert (e - (Xp - C @ X @ Cinv)).max_abs() == 0.0


def _tries_read():
    """The traced layer whose calls run.py divides by a constant to
    count the tries of generate_pair, and that constant."""
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                and isinstance(node.right, ast.Constant):
            names = [c.value for c in ast.walk(node.left)
                     if isinstance(c, ast.Constant)
                     and str(c.value).startswith("generate.")]
            if names:
                return names[0], node.right.value
    raise AssertionError("run.py counts no tries of generate_pair")


def test_generate_keeps_the_tracer_contract(monkeypatch):
    # the traced benchmark reads accept_ratio as the accepted
    # generate_pair calls over the tries, and counts the tries as the
    # traced calls of random_loxodromic over 2: generate_pair must draw
    # through that module attribute, twice per try, accepted or not
    import loxpairs.generate as generate
    from loxpairs.genericity import PairGenericityReport
    from loxpairs.hermitian import HermitianSpace
    name, per_try = _tries_read()
    assert name == "generate.random_loxodromic" and per_try == 2
    layer, attr = name.split(".")
    assert layer in LAYERS and inspect.isfunction(getattr(generate, attr))
    draws, tries = [], []
    draw, report = generate.random_loxodromic, generate.genericity_report

    def drawing(*args):
        draws.append(1)
        return draw(*args)

    def reporting(*args):
        tries.append(1)
        return report(*args)

    monkeypatch.setattr(generate, attr, drawing)
    monkeypatch.setattr(generate, "genericity_report", reporting)
    for n, field, mode in [(3, "quaternion", "strong"),
                           (3, "complex", "weak"), (4, "complex", "strong"),
                           (2, "quaternion", "weak")]:
        for seed in range(4):
            draws.clear(), tries.clear()
            generate.generate_pair(HermitianSpace(n, field), seed=seed,
                                   mode=mode)
            assert len(draws) == per_try * len(tries) > 0
    # a call that gives up has drawn two elements per try as well
    never = PairGenericityReport(False, False, np.zeros((2, 2), dtype=bool))
    monkeypatch.setattr(generate, "genericity_report",
                        lambda *args: tries.append(1) or [never])
    draws.clear(), tries.clear()
    with pytest.raises(generate.LoxpairsError, match="in 100 attempts"):
        generate.generate_pair(HermitianSpace(3, "complex"), seed=0)
    assert len(draws) == per_try * len(tries) == per_try * generate.MAX_TRIES


CLI_MIX = sorted(name for name, where in HOME_OF.items()
                 if "cli-mix" in where)


def test_cli_mix_layers_are_entered(tmp_path):
    # one in-process main call of each command, as cli-mix runs them,
    # must enter every layer HOME lists for cli-mix
    import sys

    from loxpairs import serialize as sz
    from loxpairs.cli import main
    from loxpairs.qmatrix import conjugate_by
    from loxpairs.twistbend import identity_params, pants_groups
    assert {"serialize.validate_against_schema", "spectral.classify_element",
            "spectral.real_char_poly", "twistbend.PantsGroup"} <= set(CLI_MIX)
    pair, partner = tmp_path / "pair.json", tmp_path / "partner.json"
    kappa, graph = tmp_path / "kappa.json", tmp_path / "graph.json"
    assert main(["generate", "--n", "3", "--seed", "7", "--mode", "strong",
                 "--out", str(pair)]) == 0
    space, A, B = sz.pair_from_json(sz.loads(pair.read_text()))
    C = space.random_isometry(np.random.default_rng(7))
    partner.write_text(sz.dumps(sz.pair_to_json(
        space, conjugate_by(C, A), conjugate_by(C, B))))
    frames = pants_groups(space, [(A, B)])[0].frames
    kappa.write_text(sz.dumps(sz.kappa_to_json(identity_params(frames[0]))))
    edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
    graph.write_text(sz.dumps(sz.graph_to_json(
        space, [(A, B), (B.inverse(), A.inverse())], edges,
        [identity_params(frames[e[1]]) for e in edges])))
    calls = [["generate", "--seed", "8"],
             ["classify", "--in", str(pair)],
             ["invariants", "--in", str(pair)],
             ["conjugacy-test", "--in", str(pair), "--in", str(partner)],
             ["twist-bend", "--in", str(pair), "--in", str(kappa)],
             ["assemble", "--in", str(graph)]]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in calls:
            codes.append(main([*argv, "--out", str(tmp_path / "out.json")]))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(calls)
    missing = [name for name in CLI_MIX if _code(name) not in entered]
    assert not missing, f"layers no cli-mix op entered: {missing}"
