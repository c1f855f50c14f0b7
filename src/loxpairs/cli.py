"""Command-line interface.

Subcommands: generate, classify, invariants, conjugacy-test, twist-bend,
assemble.  All artifacts are JSON; exit status is 0 on success, 2 on
degenerate input, 3 when a constructed conjugator fails verification or
an assembled surface group misses its relation by more than
twistbend.RELATION_TOL.

The parser is built on the first call of main and reused by every later
call in the process; nothing is built at import.  Only a process that
calls main more than once gains from this: a shell `loxpairs` call
builds the parser once either way.
"""

import argparse
import sys
from functools import lru_cache

import numpy as np

from . import serialize as sz
from .classify import conjugacy_test
from .errors import DegenerateInputError, LoxpairsError, VerificationFailed
from .generate import generate_pair
from .genericity import genericity_report
from .gram import normalize_lifts
from .hermitian import HermitianSpace
from .invariants import pair_invariants
from .qmatrix import QArray
from .spectral import classify_element, eigen_frame
from .twistbend import (assemble_surface_representation, pants_groups,
                        tilde_invariants, twist_bend_element)


def _read_json(path: str):
    with open(path, "rb") as fh:
        return sz.loads(fh.read())


def _emit(args, payload: dict):
    text = sz.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quat_str(q) -> str:
    return f"Re {float(q.a.real):+.6f}  | | {float(q.moduli()):.6f}"


def _pretty_tuple(t) -> str:
    lines = [f"field: {t.field_tag}"]
    layout = t.layout()
    for name in ("X1", "X2", "X3", "alpha", "beta", "eta_A", "eta_B",
                 "mixed"):
        idx = layout[name]
        for pos in np.ndindex(idx.shape):       # mixed[i][j] is a grid
            label = name + "".join(f"[{i + 1}]" for i in pos)
            lines.append(f"{label}: {_quat_str(t.entries.pick(idx[pos]))}")
    lines.append("angular: " + "  ".join(f"{a:.6f}" for a in t.angular))
    return "\n".join(lines) + "\n"


def _cmd_generate(args) -> int:
    space = HermitianSpace(args.n, args.field)
    A, B = generate_pair(space, seed=args.seed, mode=args.mode)
    _emit(args, sz.pair_to_json(space, A, B))
    return 0


def _cmd_classify(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    classes = classify_element(space, QArray.stack([A, B]), tol=args.tol)
    _emit(args, {name: {"is_loxodromic": cls.is_loxodromic,
                        "delta": cls.delta,
                        "real_trace": list(map(float, cls.real_trace)),
                        "reason": cls.reason}
                 for name, cls in zip("AB", classes)})
    return 0


def _cmd_invariants(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    fa, fb = eigen_frame(space, QArray.stack([A, B]))
    reps = genericity_report(space, [fa], [fb])
    t, = pair_invariants(space, [fa], [fb], reps,
                         normalize_lifts(space, reps))
    _emit(args, sz.invariant_tuple_to_json(t))
    if args.pretty:
        sys.stdout.write(_pretty_tuple(t))
    return 0


def _cmd_conjugacy_test(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    space2, A2, B2 = sz.pair_from_json(_read_json(args.infile[1]))
    if (space.n, space.field) != (space2.n, space2.field):
        raise DegenerateInputError("pair files live in different spaces")
    res = conjugacy_test(space, A, B, A2, B2, mode=args.mode, tol=args.tol)
    # a rejection carries no residual (NaN), and NaN is not JSON
    _emit(args, {"conjugate": res.conjugate,
                 "conjugator": (None if res.conjugator is None
                                else sz.matrix_to_json(res.conjugator)),
                 "stage": res.stage,
                 "residual": (res.residual if np.isfinite(res.residual)
                              else None)})
    return 0


def _cmd_twist_bend(args) -> int:
    space, A, B = sz.pair_from_json(_read_json(args.infile[0]))
    kappa = sz.kappa_from_json(_read_json(args.infile[1]))
    # A's and B's frames come before (AB)^-1 is formed, so their errors
    # come first
    fa, fb = eigen_frame(space, QArray.stack([A, B]))
    fc = eigen_frame(space, (A @ B).inverse())
    K = twist_bend_element(kappa, fa)
    x1, x2, x3, a1, a3 = tilde_invariants(space, K, fa, fb, fc)
    _emit(args, {"K": sz.matrix_to_json(K),
                 "tilde": {"X1": x1.components().tolist(),
                           "X2": x2.components().tolist(),
                           "X3": x3.components().tolist(),
                           "A1": float(a1), "A3": float(a3)}})
    return 0


def _cmd_assemble(args) -> int:
    space, pairs, edges, kappas = sz.graph_from_json(
        _read_json(args.infile[0]))
    rep = assemble_surface_representation(
        space, pants_groups(space, pairs), edges, kappas)
    _emit(args, {"genus": rep.genus,
                 "generators": {name: sz.matrix_to_json(g)
                                for name, g in rep.generators.items()},
                 "relation_residual": rep.relation_residual,
                 "parameter_count": rep.parameter_count})
    return 0


_OPTIONS = {
    "--n": dict(type=int, default=3),
    "--field": dict(choices=("complex", "quaternion"), default="quaternion"),
    "--seed": dict(type=int, default=0),
    "--mode": dict(choices=("weak", "strong"), default="weak"),
    "--tol": dict(type=float, default=1e-7),
    "--in": dict(dest="infile", action="append", default=[],
                 metavar="PATH"),
    "--out": dict(default=None, metavar="PATH"),
    "--pretty": dict(action="store_true"),
}

# subcommand -> (handler, number of --in files, the options it reads)
_COMMANDS = {
    "generate": (_cmd_generate, 0,
                 ("--n", "--field", "--seed", "--mode", "--out")),
    "classify": (_cmd_classify, 1, ("--in", "--tol", "--out")),
    "invariants": (_cmd_invariants, 1, ("--in", "--out", "--pretty")),
    "conjugacy-test": (_cmd_conjugacy_test, 2,
                       ("--in", "--mode", "--tol", "--out")),
    "twist-bend": (_cmd_twist_bend, 2, ("--in", "--out")),
    "assemble": (_cmd_assemble, 1, ("--in", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loxpairs",
        description="Conjugacy invariants of pairs of loxodromic "
                    "isometries of complex and quaternionic hyperbolic "
                    "space")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


# argparse gives each parse_args call a fresh Namespace and copies the
# append default, so one parser serves every call
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, n_in, _ = _COMMANDS[args.command]
    if n_in and len(args.infile) != n_in:
        print(f"error: {args.command} takes {n_in} --in, got "
              f"{len(args.infile)}", file=sys.stderr)
        return 2
    try:
        return handler(args)
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
