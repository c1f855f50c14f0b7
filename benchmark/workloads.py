"""The four workloads.  Each builds, from the seed, a list of ops: one
library call each, with the numpy check of its answer.

decide          conjugacy_test over n in {3,4,5} x both fields, well
                conditioned; half conjugate, a quarter separated by
                spectrum (exit at real-trace), a quarter sharing spectra
                with B conjugated independently (exit at tuple).  The
                paper's main path; runs every layer under classify.
decide-illcond  conjugacy_test, n = 3, both fields, all conjugate, by
                conjugators on the ladder Q, Q^2, Q^3.  Same layers in
                the regime where balancing is active and gates sit near
                their limits, so a speed-up that costs accuracy shows.
quadruples      boundary_quadruple_congruence over n in {3,4,5} x both
                fields, half congruent (w = Q z s) and half independent.
                The one path with no spectral work: inner products,
                Sp(1) alignment, ranks and inverses.
cli-mix         in-process loxpairs.cli.main calls with --out, cycling
                generate, classify, invariants, conjugacy-test,
                twist-bend and a genus-2 assemble, n = 3, both fields.
                The one workload with JSON parsing, schema validation
                and file output, and the one that builds pants groups.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import inputs as I
import oracles

FIELDS = ("complex", "quaternion")
DIMS = (3, 4, 5)
# isometry scales: the entry size of the Lie-algebra element behind
# each random isometry
WELL = 0.5          # conjugators of decide and quadruples
ELEMENT = 1.0       # the Q in A = Q E Q^-1
LADDER = 0.8        # decide-illcond: conjugators Q, Q^2, Q^3 of this Q


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


class Built:
    """Ops of one workload plus the count of drawn inputs a
    precondition rejected before they reached the library.  The build_*
    functions below are generators: they yield one op at a time and
    count rejections here."""

    def __init__(self):
        self.ops: list[Op] = []
        self.rejected = 0


def _qarray(lib, E):
    return lib.qmatrix.QArray(*I.split(E))


# -- decide / decide-illcond -----------------------------------------------

def _conjugacy_op(lib, label, n, field, mats, expect: bool) -> Op:
    A, B, A2, B2 = mats
    space = lib.hermitian.HermitianSpace(n, field)

    def call():
        return lib.classify.conjugacy_test(
            space, *(_qarray(lib, E) for E in mats))

    def check(res):
        if expect and not res.conjugate:
            return f"{oracles.MISSED} not conjugate at {res.stage}"
        if res.conjugate and not expect:
            return "conjugate, but built not conjugate"
        if res.conjugate:
            return oracles.conjugator(I.from_qarray(res.conjugator), n,
                                      [(A, A2), (B, B2)])
        return None

    return Op(label, call, check)


def build_decide(lib, rng, count: int, digest, built: Built):
    kinds = ("conjugate", "real-trace", "conjugate", "tuple")
    for i in range(count):
        n, field = [(n, f) for n in DIMS for f in FIELDS][i % 6]
        kind = kinds[(i // 6) % 4]
        A = I.loxodromic(rng, n, field, ELEMENT)
        B = I.loxodromic(rng, n, field, ELEMENT)
        C = I.isometry(rng, n, field, WELL)
        if kind == "conjugate":
            B2 = I.conj(C, B)
        elif kind == "real-trace":
            B2 = I.loxodromic(rng, n, field, ELEMENT)
        else:
            B2 = I.conj(I.isometry(rng, n, field, WELL), B)
        mats = (A, B, I.conj(C, A), B2)
        digest.add(*mats)
        yield _conjugacy_op(lib, f"n{n}-{field}-{kind}", n, field, mats,
                            kind == "conjugate")


def build_decide_illcond(lib, rng, count: int, digest, built: Built):
    n = 3
    for i in range(count):
        field = FIELDS[i % 2]
        k = (i // 2) % 3 + 1
        A = I.loxodromic(rng, n, field, ELEMENT)
        B = I.loxodromic(rng, n, field, ELEMENT)
        C = np.linalg.matrix_power(I.isometry(rng, n, field, LADDER), k)
        mats = (A, B, I.conj(C, A), I.conj(C, B))
        digest.add(*mats)
        yield _conjugacy_op(lib, f"n{n}-{field}-Q{k}", n, field, mats, True)


# -- quadruples -----------------------------------------------------------

def build_quadruples(lib, rng, count: int, digest, built: Built):
    for i in range(count):
        n, field = [(n, f) for n in DIMS for f in FIELDS][i % 6]
        congruent = (i // 6) % 2 == 0
        zs = [I.null_point(rng, n, field) for _ in range(4)]
        if congruent:
            Q = I.isometry(rng, n, field, WELL)
            ws = [I.rmul(Q @ z, I.unit_scalar(rng, field)) for z in zs]
        else:
            ws = [I.null_point(rng, n, field) for _ in range(4)]
        digest.add(*zs, *ws)
        space = lib.hermitian.HermitianSpace(n, field)

        def call(space=space, zs=zs, ws=ws):
            return lib.classify.boundary_quadruple_congruence(
                space, [_qarray(lib, z) for z in zs],
                [_qarray(lib, w) for w in ws])

        def check(h, n=n, zs=zs, ws=ws, congruent=congruent):
            if h is None:
                return f"{oracles.MISSED} no congruence" if congruent else None
            if not congruent:
                return "congruence for quadruples built independent"
            return oracles.congruence(I.from_qarray(h), n, zs, ws)

        kind = "congruent" if congruent else "independent"
        yield Op(f"n{n}-{field}-{kind}", call, check)


# -- cli-mix --------------------------------------------------------------

CLI_COMMANDS = ("generate", "classify", "invariants", "conjugacy-test",
                "twist-bend", "assemble")


def _matrix_json(E: np.ndarray) -> list:
    """Row-major quaternion 4-arrays [w, x, y, z], a = w + ix, b = y - iz."""
    a, b = I.split(E)
    return [[[float(a[r, c].real), float(a[r, c].imag),
              float(b[r, c].real), float(-b[r, c].imag)]
             for c in range(a.shape[1])] for r in range(a.shape[0])]


def _matrix_from_json(rows) -> np.ndarray:
    q = np.asarray(rows, dtype=float)
    return I.embed(q[..., 0] + 1j * q[..., 1], q[..., 2] - 1j * q[..., 3])


def _kappa(rng, points) -> tuple[dict, np.ndarray]:
    """A non-trivial twist-bend pinned to the given frame points, and
    its eigenvalue classes."""
    t = rng.uniform(1.05, 1.4)
    psi, xi1, xi2 = rng.uniform(-0.6, 0.6, 3)
    obj = {"t": t, "psi": psi, "xi": [xi1, xi2],
           "k": [[[float(c.real), float(c.imag)] for c in p]
                 for p in points]}
    spec = np.array([t * np.exp(1j * psi), np.exp(1j * xi1),
                     np.exp(1j * xi2), np.exp(1j * psi) / t])
    return obj, spec


def _pants_pair(rng, n, field, built: Built):
    """(A, B) whose third peripheral (AB)^-1 is a regular loxodromic
    like A and B, as numpy eigenvalues judge it; rejected draws are
    counted."""
    while True:
        A = I.loxodromic(rng, n, field, ELEMENT)
        B = I.loxodromic(rng, n, field, ELEMENT)
        if I.regular_loxodromic(np.linalg.inv(A @ B), field):
            return A, B
        built.rejected += 1


class CliExit(Exception):
    """A CLI call that returned a non-zero exit code, the CLI's channel
    for typed library errors."""


class _CliOp:
    """One in-process CLI call.  A non-zero exit raises CliExit; the
    check reads the file the call wrote."""

    def __init__(self, lib, argv, out_path, check_obj):
        self.lib, self.argv, self.out_path = lib, argv, out_path
        self.check_obj = check_obj

    def call(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stderr(sink), \
                    contextlib.redirect_stdout(sink):
                code = self.lib.cli.main(self.argv)
        except SystemExit as exc:
            raise RuntimeError(f"CLI raised SystemExit({exc.code})") from exc
        if code != 0:
            raise CliExit(f"exit code {code}: {sink.getvalue().strip()}")
        return code

    def check(self, _code):
        with open(self.out_path) as fh:
            return self.check_obj(json.load(fh))


def build_cli_mix(lib, rng, count: int, digest, built: Built,
                  workdir: str):
    n = 3
    os.makedirs(workdir, exist_ok=True)

    def write(name, obj):
        path = os.path.join(workdir, name)
        text = json.dumps(obj, sort_keys=True)
        digest.add_bytes(text.encode())
        with open(path, "w") as fh:
            fh.write(text)
        return path

    per_round = len(FIELDS) * len(CLI_COMMANDS)
    for r in range(-(-count // per_round)):
        for field in FIELDS:
            space = {"n": n, "field": field}
            tag = f"{field}-{r}"
            A, B = _pants_pair(rng, n, field, built)
            pair = write(f"{tag}-pair.json", {
                "space": space, "A": _matrix_json(A), "B": _matrix_json(B)})
            conjugate = r % 2 == 0
            C = I.isometry(rng, n, field, WELL)
            B2 = I.conj(C, B) if conjugate else \
                I.conj(I.isometry(rng, n, field, WELL), B)
            A2 = I.conj(C, A)
            partner = write(f"{tag}-partner.json", {
                "space": space, "A": _matrix_json(A2),
                "B": _matrix_json(B2)})
            kap, kap_spec = _kappa(rng, I.frame_points(A, field))
            kappa = write(f"{tag}-kappa.json", kap)
            # genus 2: pants (A, B) and (B^-1, A^-1) glued along all three
            # peripherals; every edge starts at pants 0, whose frames pin
            # the kappa points
            Ai, Bi = np.linalg.inv(A), np.linalg.inv(B)
            peripherals = (A, B, np.linalg.inv(A @ B))
            edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
            graph = write(f"{tag}-graph.json", {
                "space": space, "nodes": [0, 1],
                "pants": [{"A": _matrix_json(A), "B": _matrix_json(B)},
                          {"A": _matrix_json(Bi), "B": _matrix_json(Ai)}],
                "edges": [[*e, _kappa(rng, I.frame_points(
                    peripherals[e[1]], field))[0]] for e in edges]})
            seed = int(rng.integers(2 ** 31))
            digest.add_bytes(str(seed).encode())

            def gen_check(obj, field=field):
                return oracles.loxodromic(_matrix_from_json(obj["A"]), field,
                                          n) or oracles.loxodromic(
                    _matrix_from_json(obj["B"]), field, n)

            def cls_check(obj, A=A, B=B):
                for name, E in (("A", A), ("B", B)):
                    if not obj[name]["is_loxodromic"]:
                        return (f"{oracles.MISSED} {name} classified not "
                                "loxodromic")
                    why = oracles.real_trace(obj[name]["real_trace"], E, n)
                    if why:
                        return why
                return None

            def inv_check(obj, A=A, B=B):
                return oracles.real_trace(obj["real_trace_A"], A, n) or \
                    oracles.real_trace(obj["real_trace_B"], B, n)

            def conj_check(obj, mats=(A, B, A2, B2), expect=conjugate):
                if expect and not obj["conjugate"]:
                    return f"{oracles.MISSED} not conjugate at {obj['stage']}"
                if obj["conjugate"] and not expect:
                    return "conjugate, but built not conjugate"
                if not expect:
                    return None
                return oracles.conjugator(
                    _matrix_from_json(obj["conjugator"]), n,
                    [(mats[0], mats[2]), (mats[1], mats[3])])

            def tb_check(obj, A=A, spec=kap_spec):
                return oracles.commuting(_matrix_from_json(obj["K"]), A, n,
                                         spec)

            def asm_check(obj):
                gens = {k: _matrix_from_json(v)
                        for k, v in obj["generators"].items()}
                return oracles.surface_relation(gens, n,
                                                obj["relation_residual"])

            plan = {
                "generate": (["generate", "--n", str(n), "--field", field,
                              "--seed", str(seed)], gen_check),
                "classify": (["classify", "--in", pair], cls_check),
                "invariants": (["invariants", "--in", pair], inv_check),
                "conjugacy-test": (["conjugacy-test", "--in", pair,
                                    "--in", partner], conj_check),
                "twist-bend": (["twist-bend", "--in", pair, "--in", kappa],
                               tb_check),
                "assemble": (["assemble", "--in", graph], asm_check),
            }
            for cmd in CLI_COMMANDS:
                argv, check = plan[cmd]
                path = os.path.join(workdir, f"out-{tag}-{cmd}.json")
                op = _CliOp(lib, [*argv, "--out", path], path, check)
                yield Op(f"{cmd}-{field}", op.call, op.check)


WORKLOADS = {
    "decide": build_decide,
    "decide-illcond": build_decide_illcond,
    "quadruples": build_quadruples,
    "cli-mix": build_cli_mix,
}
