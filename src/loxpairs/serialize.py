"""JSON codecs for the domain types.

Quaternions serialize as [w, x, y, z]; vectors as arrays of quaternion
4-arrays; matrices as row-major nested arrays.  Floats go through
Python's shortest round-trip repr (at most 17 significant digits), so
parse(serialize(x)) reproduces every value bit for bit.
"""

import json
from functools import lru_cache
from importlib import resources
from typing import Tuple

import numpy as np

from .errors import ParseError
from .hermitian import HermitianSpace
from .invariants import InvariantTuple
from .qmatrix import QArray
from .quat import Quaternion
from .spectral import LoxodromicFrame, projective_point
from .twistbend import TwistBendParams


def quaternion_to_json(q: Quaternion) -> list:
    return [float(v) for v in q.to_array()]


def quaternion_from_json(obj) -> Quaternion:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise ParseError(f"quaternion must be a 4-array, got {obj!r}")
    return Quaternion.from_array(obj)


def complex_to_json(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def complex_from_json(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ParseError(f"complex number must be a 2-array, got {obj!r}")
    return complex(obj[0], obj[1])


def vector_to_json(v: QArray) -> list:
    return [quaternion_to_json(q) for q in v.to_quaternions()]


def vector_from_json(obj) -> QArray:
    return QArray.from_quaternions([quaternion_from_json(e) for e in obj])


def matrix_to_json(M: QArray) -> list:
    rows = M.to_quaternions()
    return [[quaternion_to_json(q) for q in row] for row in rows]


def matrix_from_json(obj) -> QArray:
    return QArray.from_quaternions(
        [[quaternion_from_json(e) for e in row] for row in obj])


def space_to_json(space: HermitianSpace) -> dict:
    return {"n": space.n, "field": space.field}


def space_from_json(obj) -> HermitianSpace:
    try:
        return HermitianSpace(int(obj["n"]), obj["field"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad space descriptor: {exc}") from exc


def pair_to_json(space: HermitianSpace, A: QArray, B: QArray) -> dict:
    return {"space": space_to_json(space),
            "A": matrix_to_json(A), "B": matrix_to_json(B)}


def pair_from_json(obj) -> Tuple[HermitianSpace, QArray, QArray]:
    try:
        space = space_from_json(obj["space"])
        return space, matrix_from_json(obj["A"]), matrix_from_json(obj["B"])
    except KeyError as exc:
        raise ParseError(f"pair file missing key {exc}") from exc


def projective_to_json(p: np.ndarray) -> list:
    return [complex_to_json(c) for c in np.asarray(p, dtype=complex)]


def projective_from_json(obj) -> np.ndarray:
    return np.array([complex_from_json(c) for c in obj], dtype=complex)


def invariant_tuple_to_json(t: InvariantTuple) -> dict:
    return {
        "field": t.field_tag,
        "real_trace_A": list(map(float, t.real_trace_A)),
        "real_trace_B": list(map(float, t.real_trace_B)),
        "angular": list(map(float, t.angular)),
        "X1": quaternion_to_json(t.X1),
        "X2": quaternion_to_json(t.X2),
        "X3": quaternion_to_json(t.X3),
        "alpha": [quaternion_to_json(q) for q in t.alpha],
        "beta": [quaternion_to_json(q) for q in t.beta],
        "mixed": [[quaternion_to_json(q) for q in row] for row in t.mixed],
        "eta_A": [quaternion_to_json(q) for q in t.eta_A],
        "eta_B": [quaternion_to_json(q) for q in t.eta_B],
        "projective_A": [projective_to_json(p) for p in t.projective_A],
        "projective_B": [projective_to_json(p) for p in t.projective_B],
        "matching_A": list(t.matching_A),
        "matching_B": list(t.matching_B),
    }


def invariant_tuple_from_json(obj) -> InvariantTuple:
    try:
        return InvariantTuple(
            field_tag=obj["field"],
            real_trace_A=np.array(obj["real_trace_A"], dtype=float),
            real_trace_B=np.array(obj["real_trace_B"], dtype=float),
            angular=np.array(obj["angular"], dtype=float),
            X1=quaternion_from_json(obj["X1"]),
            X2=quaternion_from_json(obj["X2"]),
            X3=quaternion_from_json(obj["X3"]),
            alpha=[quaternion_from_json(q) for q in obj["alpha"]],
            beta=[quaternion_from_json(q) for q in obj["beta"]],
            mixed=[[quaternion_from_json(q) for q in row]
                   for row in obj["mixed"]],
            eta_A=[quaternion_from_json(q) for q in obj["eta_A"]],
            eta_B=[quaternion_from_json(q) for q in obj["eta_B"]],
            projective_A=[projective_from_json(p)
                          for p in obj["projective_A"]],
            projective_B=[projective_from_json(p)
                          for p in obj["projective_B"]],
            matching_A=list(obj["matching_A"]),
            matching_B=list(obj["matching_B"]),
        )
    except KeyError as exc:
        raise ParseError(f"invariant tuple missing key {exc}") from exc


def kappa_to_json(kappa: TwistBendParams) -> dict:
    return {"t": float(kappa.t), "psi": float(kappa.psi),
            "xi": [float(kappa.xi1), float(kappa.xi2)],
            "k": [projective_to_json(kappa.k1),
                  projective_to_json(kappa.k2),
                  projective_to_json(kappa.k3)]}


def kappa_from_json(obj) -> TwistBendParams:
    try:
        k1, k2, k3 = (projective_from_json(p) for p in obj["k"])
        return TwistBendParams(t=float(obj["t"]), psi=float(obj["psi"]),
                               xi1=float(obj["xi"][0]),
                               xi2=float(obj["xi"][1]),
                               k1=k1, k2=k2, k3=k3)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"bad twist-bend parameter block: {exc}") from exc


def frame_to_json(frame: LoxodromicFrame) -> dict:
    """Eigenvalue classes as complex pairs, eigenvector lifts as
    quaternion arrays, projective fixed points as homogeneous pairs."""
    return {
        "radius": float(frame.radius),
        "theta": float(frame.theta),
        "phis": list(map(float, frame.phis)),
        "eigenvalues": [complex_to_json(lam) for lam in frame.eigenvalues],
        "attracting": vector_to_json(frame.attracting),
        "repelling": vector_to_json(frame.repelling),
        "positives": [vector_to_json(v) for v in frame.positives],
        "projective_points": [projective_to_json(projective_point(v))
                              for v in frame.positives],
    }


def frame_from_json(obj, space: HermitianSpace) -> LoxodromicFrame:
    try:
        return LoxodromicFrame(
            radius=float(obj["radius"]), theta=float(obj["theta"]),
            phis=np.array(obj["phis"], dtype=float),
            attracting=vector_from_json(obj["attracting"]),
            repelling=vector_from_json(obj["repelling"]),
            positives=[vector_from_json(v) for v in obj["positives"]],
            space=space)
    except KeyError as exc:
        raise ParseError(f"frame missing key {exc}") from exc


def report_to_json(report) -> dict:
    return {"weakly_nonsingular": bool(report.weakly_nonsingular),
            "nonsingular": bool(report.nonsingular),
            "matching_A": list(report.matching_A),
            "matching_B": list(report.matching_B),
            "omitted_A": report.omitted_A,
            "omitted_B": report.omitted_B,
            "multiple_matchings": bool(report.multiple_matchings),
            "failing_conditions": list(report.failing_conditions)}


def graph_to_json(space: HermitianSpace, pants, edges, kappas) -> dict:
    """Gluing graph: nodes are pants ids; each edge is
    [node, peripheral slot, node, peripheral slot, kappa]."""
    return {"space": space_to_json(space),
            "nodes": list(range(len(pants))),
            "pants": [{"A": matrix_to_json(A), "B": matrix_to_json(B)}
                      for (A, B) in pants],
            "edges": [[int(i), int(si), int(j), int(sj), kappa_to_json(k)]
                      for (i, si, j, sj), k in zip(edges, kappas)]}


def graph_from_json(obj):
    """Returns (space, [(A, B), ...], [(i, si, j, sj), ...], [kappa, ...])."""
    try:
        space = space_from_json(obj["space"])
        pants = [(matrix_from_json(p["A"]), matrix_from_json(p["B"]))
                 for p in obj["pants"]]
        edges = [tuple(int(v) for v in e[:4]) for e in obj["edges"]]
        kappas = [kappa_from_json(e[4]) for e in obj["edges"]]
        return space, pants, edges, kappas
    except (KeyError, IndexError) as exc:
        raise ParseError(f"gluing graph missing key {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def load_schema(name: str) -> dict:
    ref = resources.files("loxpairs") / "schemas" / f"{name}.json"
    return json.loads(ref.read_text())


@lru_cache(maxsize=None)
def _validator(name: str):
    """The schema's validator, checked once and built once."""
    import jsonschema
    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_against_schema(obj, name: str):
    """Raise ParseError with the error jsonschema.validate would report."""
    from jsonschema.exceptions import best_match
    error = best_match(_validator(name).iter_errors(obj))
    if error is not None:
        raise ParseError(f"{name} does not match its schema: "
                         f"{error.message}")
