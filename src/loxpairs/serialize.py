"""The CLI's file formats: pair files, kappa blocks, gluing graphs and
the JSON each command writes.

Quaternions serialize as [w, x, y, z] and matrices as row-major nested
arrays of them.  Floats go through Python's shortest round-trip repr (at
most 17 significant digits), so parse(serialize(x)) reproduces every
value bit for bit.  Every matrix is read through matrix_from_json, which
raises ParseError on anything but a finite dim x dim x 4 array.
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
from .twistbend import TwistBendParams


def quaternion_to_json(q: Quaternion) -> list:
    return [float(v) for v in q.to_array()]


def complex_to_json(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def complex_from_json(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ParseError(f"complex number must be a 2-array, got {obj!r}")
    return complex(obj[0], obj[1])


def matrix_to_json(M: QArray) -> list:
    rows = M.to_quaternions()
    return [[quaternion_to_json(q) for q in row] for row in rows]


def space_to_json(space: HermitianSpace) -> dict:
    return {"n": space.n, "field": space.field}


def space_from_json(obj) -> HermitianSpace:
    try:
        return HermitianSpace(int(obj["n"]), obj["field"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad space descriptor: {exc}") from exc


def pair_to_json(space: HermitianSpace, A: QArray, B: QArray) -> dict:
    return {"space": space_to_json(space),
            "A": matrix_to_json(A), "B": matrix_to_json(B)}


def matrix_from_json(obj, dim: int, name: str = "matrix") -> QArray:
    """A dim x dim matrix of [w, x, y, z] quaternions; ParseError unless
    obj is exactly that, with every entry a finite number."""
    try:
        q = np.asarray(obj, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{name} is not an array of numbers: {exc}") from exc
    if q.shape != (dim, dim, 4):
        raise ParseError(f"{name} has shape {q.shape}, expected "
                         f"({dim}, {dim}, 4)")
    if not np.all(np.isfinite(q)):
        raise ParseError(f"{name} has a non-finite entry")
    w, x, y, z = np.moveaxis(q, -1, 0)
    return QArray(w + 1j * x, y - 1j * z)


def pair_from_json(obj) -> Tuple[HermitianSpace, QArray, QArray]:
    """Space and generators of a pair file."""
    try:
        space = space_from_json(obj["space"])
        return (space, matrix_from_json(obj["A"], space.dim, "A"),
                matrix_from_json(obj["B"], space.dim, "B"))
    except KeyError as exc:
        raise ParseError(f"pair file missing key {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"malformed pair file: {exc}") from exc


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


def kappa_to_json(kappa: TwistBendParams) -> dict:
    return {"t": float(kappa.t), "psi": float(kappa.psi),
            "xi": [float(kappa.xi1), float(kappa.xi2)],
            "k": [projective_to_json(kappa.k1),
                  projective_to_json(kappa.k2),
                  projective_to_json(kappa.k3)]}


def kappa_from_json(obj) -> TwistBendParams:
    try:
        k1, k2, k3 = (projective_from_json(p) for p in obj["k"])
        t, psi, xi1, xi2 = (float(v) for v in
                            (obj["t"], obj["psi"], obj["xi"][0], obj["xi"][1]))
        if not np.all(np.isfinite([t, psi, xi1, xi2])):
            raise ValueError("t, psi and xi must be finite")
        return TwistBendParams(t, psi, xi1, xi2, k1, k2, k3)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"bad twist-bend parameter block: {exc}") from exc


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
        pants = [tuple(matrix_from_json(p[k], space.dim, f"pants[{i}].{k}")
                       for k in ("A", "B"))
                 for i, p in enumerate(obj["pants"])]
        edges = [tuple(int(v) for v in e[:4]) for e in obj["edges"]]
        kappas = [kappa_from_json(e[4]) for e in obj["edges"]]
        return space, pants, edges, kappas
    except (KeyError, IndexError) as exc:
        raise ParseError(f"gluing graph missing key {exc}") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed gluing graph: {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text):
    """Parse JSON text or UTF-8 bytes; ParseError on anything
    json.loads rejects."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # bytes that are not UTF-8, integers past Python's digit limit,
        # nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc


@lru_cache(maxsize=None)
def _validator(name: str):
    """The schema's validator, checked once and built once."""
    import jsonschema
    ref = resources.files("loxpairs") / "schemas" / f"{name}.json"
    schema = json.loads(ref.read_text())
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
