"""Command-line interface.

Subcommands: generate, classify, invariants, conjugacy-test, twist-bend,
assemble.  All artifacts are JSON; exit status is 0 on success, 2 on
degenerate input, 3 when a constructed conjugator fails verification.
"""

import argparse
import sys

from . import serialize as sz
from .classify import conjugacy_test
from .errors import DegenerateInputError, LoxpairsError, VerificationFailed
from .generate import generate_pair
from .hermitian import HermitianSpace
from .invariants import pair_invariants
from .spectral import classify_element, eigen_frame
from .twistbend import (PantsGroup, assemble_surface_representation,
                        tilde_invariants, twist_bend_element)


def _read_json(path: str):
    with open(path) as fh:
        return sz.loads(fh.read())


def _emit(args, payload: dict):
    text = sz.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quat_str(q) -> str:
    return f"Re {q.real:+.6f}  | | {abs(q):.6f}"


def _pretty_tuple(t) -> str:
    lines = [f"field: {t.field_tag}"]
    for name in ("X1", "X2", "X3"):
        lines.append(f"{name}: {_quat_str(getattr(t, name))}")
    for name in ("alpha", "beta", "eta_A", "eta_B"):
        for i, q in enumerate(getattr(t, name), 1):
            lines.append(f"{name}[{i}]: {_quat_str(q)}")
    for i, row in enumerate(t.mixed, 1):
        for j, q in enumerate(row, 1):
            lines.append(f"mixed[{i}][{j}]: {_quat_str(q)}")
    lines.append("angular: " + "  ".join(f"{a:.6f}" for a in t.angular))
    return "\n".join(lines) + "\n"


def _cmd_generate(args) -> int:
    space = HermitianSpace(args.n, args.field)
    A, B = generate_pair(space, seed=args.seed, mode=args.mode)
    _emit(args, sz.pair_to_json(space, A, B))
    return 0


def _cmd_classify(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    out = {}
    for name, M in (("A", A), ("B", B)):
        cls = classify_element(space, M, tol=args.tol)
        out[name] = {"is_loxodromic": cls.is_loxodromic,
                     "delta": cls.delta,
                     "real_trace": list(map(float, cls.real_trace)),
                     "reason": cls.reason}
    _emit(args, out)
    return 0


def _cmd_invariants(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    t = pair_invariants(space, fa, fb)
    payload = sz.invariant_tuple_to_json(t)
    sz.validate_against_schema(payload, "invariant_tuple")
    _emit(args, payload)
    if args.pretty:
        sys.stdout.write(_pretty_tuple(t))
    return 0


def _cmd_conjugacy_test(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    space2, A2, B2 = sz.pair_from_json(_read_json(args.infile[1]))
    if (space.n, space.field) != (space2.n, space2.field):
        raise DegenerateInputError("pair files live in different spaces")
    res = conjugacy_test(space, A, B, A2, B2, mode=args.mode, tol=args.tol)
    _emit(args, {"conjugate": res.conjugate,
                 "conjugator": (None if res.conjugator is None
                                else sz.matrix_to_json(res.conjugator)),
                 "stage": res.stage,
                 "residual": res.residual})
    return 0


def _cmd_twist_bend(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    kappa_obj = _read_json(args.infile[1])
    sz.validate_against_schema(kappa_obj, "kappa")
    kappa = sz.kappa_from_json(kappa_obj)
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    fc = eigen_frame(space, (A @ B).inverse())
    K = twist_bend_element(kappa, fa)
    x1, x2, x3, a1, a3 = tilde_invariants(space, kappa, fa, fb, fc)
    _emit(args, {"K": sz.matrix_to_json(K),
                 "tilde": {"X1": sz.quaternion_to_json(x1),
                           "X2": sz.quaternion_to_json(x2),
                           "X3": sz.quaternion_to_json(x3),
                           "A1": float(a1), "A3": float(a3)}})
    return 0


def _cmd_assemble(args) -> int:
    obj = _read_json(args.infile[0])
    sz.validate_against_schema(obj, "graph")
    space, pairs, edges, kappas = sz.graph_from_json(obj)
    pants = [PantsGroup(space, A, B) for (A, B) in pairs]
    rep = assemble_surface_representation(space, pants, edges, kappas)
    _emit(args, {"genus": rep.genus,
                 "generators": {name: sz.matrix_to_json(g)
                                for name, g in rep.generators.items()},
                 "relation_residual": rep.relation_residual,
                 "parameter_count": rep.parameter_count})
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
    "conjugacy-test": _cmd_conjugacy_test,
    "twist-bend": _cmd_twist_bend,
    "assemble": _cmd_assemble,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loxpairs",
        description="Conjugacy invariants of pairs of loxodromic "
                    "isometries of complex and quaternionic hyperbolic "
                    "space")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--field", choices=("complex", "quaternion"),
                       default="quaternion")
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("weak", "strong"), default="weak")
        p.add_argument("--in", dest="infile", action="append", default=[],
                       metavar="PATH")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--pretty", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    needs_input = args.command != "generate"
    if needs_input and not args.infile:
        print(f"error: {args.command} requires --in", file=sys.stderr)
        return 2
    if args.command in ("conjugacy-test", "twist-bend") \
            and len(args.infile) != 2:
        print(f"error: {args.command} needs two --in files", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except (OSError, LoxpairsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
