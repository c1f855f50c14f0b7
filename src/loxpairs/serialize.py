"""The CLI's file formats: pair files, kappa blocks, gluing graphs and
the JSON each command writes.

Quaternions serialize as [w, x, y, z] and matrices as row-major nested
arrays of them.  Floats go through Python's shortest round-trip repr (at
most 17 significant digits), so parse(serialize(x)) reproduces every
value bit for bit.  Every matrix is read through matrix_from_json, which
raises ParseError on anything but a finite dim x dim x 4 array.

Every parser (pair_from_json, kappa_from_json, graph_from_json) first
checks its document against its schema under schemas/, so what the
schema says is checked once, there.  Each schema is loaded once per
process, on first use, with its local `#/$defs/` references inlined
(_schema), and compiled into one predicate over the whole document
(_compile), which knows the few keywords the schema files use.  A
document the predicate accepts is valid, and jsonschema is never
imported for it.  Only a document it rejects goes to jsonschema's stock
validator (_validator), which decides, and words the error, so every
message is jsonschema's own.  That the files are valid schemas is a
test's job.

dumps writes what json.dumps(obj, indent=2, sort_keys=True) does, plus
a newline, byte for byte, through one recursive writer (_write); json's
indent path runs its pure-Python encoder.
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
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", written by _write."""
    return _write(obj, "") + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _write(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, its
    inner lines indented by pad plus two spaces: floats and ints through
    float.__repr__ and int.__repr__, strings through json's own ASCII
    escaper.  Containers are tested first, as they are most of a
    payload; no value is of two of the types, and bools come before
    ints, so the order changes no output.  Keys must be strings, where
    json.dumps also writes int, float, bool and None keys."""
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = ",\n" + inner
        if all(type(x) is float for x in obj):
            # a row of floats in one join; only NaN and the infinities
            # put an "n" in a float's repr
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:
                body = sep.join(map(_float, obj))
        else:
            body = sep.join([_write(x, inner) for x in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{key.__class__.__name__}")
            items.append(_encode_str(key) + ": " + _write(value, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad \
            + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    f"is not JSON serializable")


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


_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_ANNOTATIONS = frozenset(("$schema", "title", "$defs"))
# the keywords _compile knows besides "type", by the type they need;
# "enum" stands alone
_KEYWORDS = {
    None: frozenset(("enum",)),
    "object": frozenset(("properties", "required", "additionalProperties")),
    "array": frozenset(("items", "prefixItems", "minItems", "maxItems")),
    "number": frozenset(("minimum", "exclusiveMinimum")),
    "integer": frozenset(("minimum", "exclusiveMinimum")),
}
_NUMBERS = frozenset((int, float))        # a bool is no number


def _is_number(x) -> bool:
    return type(x) in _NUMBERS


def _is_integer(x) -> bool:
    return type(x) is int                 # 3.0 is left to jsonschema


def _compile(node):
    """A predicate true only of instances that pass node, a draft
    2020-12 schema with no $ref, or None if node uses a keyword not in
    _KEYWORDS or without its type, or is empty.  It may reject what the
    schema accepts: a subclass of dict, list, int, float or str, an
    integer-valued float as an integer, NaN against a bound."""
    if not isinstance(node, dict):
        return None
    kind = node.get("type")
    known = _KEYWORDS.get(kind) if kind is None or type(kind) is str \
        else None
    if known is None or not node.keys() - _ANNOTATIONS - {"type"} <= known:
        return None
    if kind == "object":
        return _object(node)
    if kind == "array":
        return _array(node)
    if kind is not None:
        return _number(node, _is_number if kind == "number"
                       else _is_integer)
    names = node.get("enum", ())
    if not names or not all(type(v) is str for v in names):
        return None
    names = frozenset(names)
    return lambda x: type(x) is str and x in names


def _object(node):
    if node.get("additionalProperties", False) is not False:
        return None
    props = {k: _compile(v) for k, v in node.get("properties", {}).items()}
    if None in props.values():
        return None
    closed = "additionalProperties" in node
    names, required = frozenset(props), frozenset(node.get("required", ()))
    pairs = tuple(props.items())
    return lambda x: type(x) is dict and x.keys() >= required \
        and (not closed or x.keys() <= names) \
        and all(check(x[k]) for k, check in pairs if k in x)


def _array(node):
    head = [_compile(s) for s in node.get("prefixItems", ())]
    each = _compile(node["items"]) if "items" in node else None
    if None in head or each is None and "items" in node:
        return None
    lo, hi = node.get("minItems", 0), node.get("maxItems", float("inf"))
    if each is None:
        rest = None
    elif each is _is_number:
        def rest(x):
            # the types of a whole row in one call, no predicate per entry
            return _NUMBERS.issuperset(map(type, x))
    else:
        def rest(x):
            return all(map(each, x))
    if not head and rest is not None:
        return lambda x: type(x) is list and lo <= len(x) <= hi and rest(x)
    k = len(head)
    return lambda x: type(x) is list and lo <= len(x) <= hi \
        and all(check(v) for check, v in zip(head, x)) \
        and (rest is None or rest(x[k:]))


def _number(node, base):
    if not node.keys() & {"minimum", "exclusiveMinimum"}:
        return base
    lo = node.get("minimum", -float("inf"))
    above = node.get("exclusiveMinimum", -float("inf"))
    return lambda x: base(x) and x >= lo and x > above


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    """The schema file, its local references inlined, so that a check
    walks a plain tree and makes no registry lookup."""
    ref = resources.files("loxpairs") / "schemas" / f"{name}.json"
    schema = json.loads(ref.read_text())
    return _inline_refs(schema, schema.get("$defs", {}))


@lru_cache(maxsize=None)
def _predicate(name: str):
    """The schema compiled by _compile, built on first use; None if it
    does not compile, or is not draft 2020-12."""
    schema = _schema(name)
    return _compile(schema) if schema.get("$schema") == _DRAFT else None


@lru_cache(maxsize=None)
def _validator(name: str):
    """jsonschema's stock validator on the inlined schema, built when
    the first document fails its predicate."""
    import jsonschema
    schema = _schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_against_schema(obj, name: str):
    """Raise ParseError with the error jsonschema.validate would report.
    A document its predicate accepts is valid; only one it rejects loads
    jsonschema, to decide and to word the error."""
    check = _predicate(name)
    if check is not None and check(obj):
        return
    from jsonschema.exceptions import best_match
    error = best_match(_validator(name).iter_errors(obj))
    if error is not None:
        raise ParseError(f"{name} does not match its schema: "
                         f"{error.message}")
