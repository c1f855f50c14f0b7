"""The CLI's file formats: pair files, kappa blocks, gluing graphs and
the JSON each command writes.

Quaternions serialize as [w, x, y, z] and matrices as row-major nested
arrays of them.  Floats go through Python's shortest round-trip repr (at
most 17 significant digits), so parse(serialize(x)) reproduces every
value bit for bit.  Every matrix is read through matrix_from_json, which
raises ParseError on anything but a finite dim x dim x 4 array.

Every parser (pair_from_json, kappa_from_json, graph_from_json) first
checks its document against its schema under schemas/, so what the
schema says is checked once, there.  Each schema's validator is built
once per process, with its local `#/$defs/` references resolved at load
(_validator); that the files are valid schemas is a test's job.  Its
`items` keyword checks a plain array of numbers or of such arrays, as
the matrices are, with one precompiled predicate over the whole array;
when the predicate fails, the stock `items` runs, so every error is
jsonschema's own.
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
from .twistbend import TwistBendParams


def complex_to_json(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def matrix_to_json(M: QArray) -> list:
    return M.components().tolist()


def space_to_json(space: HermitianSpace) -> dict:
    return {"n": space.n, "field": space.field}


def space_from_json(obj) -> HermitianSpace:
    """The space of an {"n", "field"} descriptor that passed its schema,
    where n is an integer (3.0 counts, under draft 2020-12)."""
    return HermitianSpace(int(obj["n"]), obj["field"])


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
    return QArray.from_components(q)


def pair_from_json(obj) -> Tuple[HermitianSpace, QArray, QArray]:
    """Space and generators of a pair file."""
    validate_against_schema(obj, "pair")
    space = space_from_json(obj["space"])
    return (space, matrix_from_json(obj["A"], space.dim, "A"),
            matrix_from_json(obj["B"], space.dim, "B"))


def projective_to_json(p: np.ndarray) -> list:
    return [complex_to_json(c) for c in np.asarray(p, dtype=complex)]


def projective_from_json(obj) -> np.ndarray:
    """A projective point whose entries passed the schema's [re, im]."""
    return np.array([complex(re, im) for re, im in obj], dtype=complex)


def invariant_tuple_to_json(t: InvariantTuple) -> dict:
    return {"field": t.field_tag,
            "real_trace_A": list(map(float, t.real_trace_A)),
            "real_trace_B": list(map(float, t.real_trace_B)),
            "angular": list(map(float, t.angular)),
            **{name: t.entries.pick(idx).components().tolist()
               for name, idx in t.layout().items()},      # X1 .. eta_B
            "projective_A": [projective_to_json(p) for p in t.projective_A],
            "projective_B": [projective_to_json(p) for p in t.projective_B],
            "matching_A": list(t.matching_A),
            "matching_B": list(t.matching_B)}


def kappa_to_json(kappa: TwistBendParams) -> dict:
    return {"t": float(kappa.t), "psi": float(kappa.psi),
            "xi": list(map(float, kappa.xi)),
            "k": [projective_to_json(p) for p in kappa.k]}


def kappa_from_json(obj) -> TwistBendParams:
    validate_against_schema(obj, "kappa")
    return _kappa(obj)


def _kappa(obj) -> TwistBendParams:
    """The parameters of a block that passed the kappa schema."""
    try:
        k = np.array([projective_from_json(p) for p in obj["k"]])
        t, psi, *xi = (float(v) for v in (obj["t"], obj["psi"], *obj["xi"]))
        # the schema admits NaN and infinities, and integers too large
        # for a float
        if not np.all(np.isfinite([t, psi, *xi])):
            raise ValueError("t, psi and xi must be finite")
        return TwistBendParams(t, psi, np.array(xi), k)
    except (OverflowError, ValueError) as exc:
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
    validate_against_schema(obj, "graph")
    space = space_from_json(obj["space"])
    pants = [tuple(matrix_from_json(p[k], space.dim, f"pants[{i}].{k}")
                   for k in ("A", "B"))
             for i, p in enumerate(obj["pants"])]
    edges = [tuple(int(v) for v in e[:4]) for e in obj["edges"]]
    kappas = [_kappa(e[4]) for e in obj["edges"]]
    return space, pants, edges, kappas


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


def _inline_refs(node, defs: dict):
    """node with every {"$ref": "#/$defs/name"} replaced by that
    definition, itself inlined; the schema files hold no cycle."""
    if isinstance(node, dict):
        ref = node.get("$ref", "")
        if len(node) == 1 and ref.startswith("#/$defs/"):
            return _inline_refs(defs[ref[len("#/$defs/"):]], defs)
        return {k: _inline_refs(v, defs) for k, v in node.items()}
    if isinstance(node, list):
        return [_inline_refs(v, defs) for v in node]
    return node


_NUMBERS = frozenset((int, float))        # a bool is no number


def _plain(schema):
    """A predicate true only of instances that pass schema, if schema is
    plain: {"type": "number"}, or {"type": "array"} with a plain "items"
    and at most "minItems" and "maxItems" besides; else None.  A
    subclass of int, float or list fails the predicate, where the stock
    validator may still accept it."""
    if schema == {"type": "number"}:
        return lambda x: type(x) in _NUMBERS
    if not isinstance(schema, dict) or schema.get("type") != "array" \
            or not schema.keys() <= {"type", "items", "minItems",
                                     "maxItems"}:
        return None
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
    if schema.get("items") == {"type": "number"}:
        # the types of a whole row in one call, no predicate per entry
        return lambda x: type(x) is list and lo <= len(x) <= hi \
            and _NUMBERS.issuperset(map(type, x))
    each = _plain(schema.get("items"))
    if each is None:
        return None
    return lambda x: type(x) is list and lo <= len(x) <= hi \
        and all(map(each, x))


def _plain_items(node, found: dict) -> dict:
    """found, with a predicate (_plain) for every plain subschema of
    node, keyed by its id."""
    if isinstance(node, dict):
        check = _plain(node)
        if check is not None:
            found[id(node)] = check
        for v in node.values():
            _plain_items(v, found)
    elif isinstance(node, list):
        for v in node:
            _plain_items(v, found)
    return found


@lru_cache(maxsize=None)
def _validator(name: str):
    """The schema's validator, built once, on a copy of the schema with
    its local references inlined, so that validation walks a plain tree
    and makes no registry lookup.  Its `items` checks an array against
    a plain subschema (_plain) with one predicate, and defers to the
    stock `items` when the subschema is not plain or the predicate
    fails.  A predicate that holds for every entry holds for those after
    any prefixItems, which are all the stock `items` reads."""
    import jsonschema
    ref = resources.files("loxpairs") / "schemas" / f"{name}.json"
    schema = json.loads(ref.read_text())
    cls = jsonschema.validators.validator_for(schema)
    schema = _inline_refs(schema, schema.get("$defs", {}))
    # the ids stay valid: the validator holds the schema for good
    checks = _plain_items(schema, {})
    stock = cls.VALIDATORS["items"]

    def items(validator, sub, instance, parent):
        check = checks.get(id(sub))
        if check is None \
                or not (type(instance) is list and all(map(check, instance))):
            yield from stock(validator, sub, instance, parent)

    return jsonschema.validators.extend(cls, {"items": items})(schema)


def validate_against_schema(obj, name: str):
    """Raise ParseError with the error jsonschema.validate would report."""
    from jsonschema.exceptions import best_match
    error = best_match(_validator(name).iter_errors(obj))
    if error is not None:
        raise ParseError(f"{name} does not match its schema: "
                         f"{error.message}")
