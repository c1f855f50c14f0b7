import copy
import json
import math
import pathlib
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import pair_stage
from loxpairs import serialize as sz
from loxpairs.errors import ParseError
from loxpairs.generate import generate_pair
from loxpairs.spectral import eigen_frame
from loxpairs.twistbend import TwistBendParams, identity_params


def test_pair_round_trip_bit_exact(space):
    A, B = generate_pair(space, seed=9)
    obj = sz.pair_to_json(space, A, B)
    text = sz.dumps(obj)
    space2, A2, B2 = sz.pair_from_json(sz.loads(text))
    assert (space2.n, space2.field) == (space.n, space.field)
    assert np.array_equal(A.a, A2.a) and np.array_equal(A.b, A2.b)
    assert np.array_equal(B.a, B2.a) and np.array_equal(B.b, B2.b)
    # a second serialization is byte-identical
    assert sz.dumps(sz.pair_to_json(space2, A2, B2)) == text


def test_pair_schema(space):
    A, B = generate_pair(space, seed=9)
    sz.validate_against_schema(sz.pair_to_json(space, A, B), "pair")


def test_invariant_tuple_round_trip(qspace, qpair):
    A, B = qpair
    fa, fb = eigen_frame(qspace, A), eigen_frame(qspace, B)
    _, _, t = pair_stage(qspace, fa, fb)
    obj = sz.invariant_tuple_to_json(t)
    sz.validate_against_schema(obj, "invariant_tuple")


def test_kappa_round_trip(qframes):
    fa, _ = qframes
    k0 = identity_params(fa)
    kap = TwistBendParams(1.25, -0.3, np.array([0.5, 0.7]), k0.k)
    obj = sz.kappa_to_json(kap)
    sz.validate_against_schema(obj, "kappa")
    kap2 = sz.kappa_from_json(sz.loads(sz.dumps(obj)))
    assert (kap2.t, kap2.psi, *kap2.xi) == (1.25, -0.3, 0.5, 0.7)
    assert kap2.xi.shape == (2,) and kap2.k.shape == (3, 2)
    assert np.array_equal(kap.k, kap2.k)


def test_graph_round_trip(qspace, qpair, qframes):
    A, B = qpair
    fa, _ = qframes
    kap = identity_params(fa)
    edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
    obj = sz.graph_to_json(qspace, [(A, B), (B.inverse(), A.inverse())],
                           edges, [kap] * 3)
    sz.validate_against_schema(obj, "graph")
    space2, pants, edges2, kappas = sz.graph_from_json(sz.loads(sz.dumps(obj)))
    assert edges2 == edges
    assert len(pants) == 2 and len(kappas) == 3
    assert np.array_equal(pants[0][0].a, A.a)


def test_loads_reports_position():
    with pytest.raises(ParseError, match="line"):
        sz.loads("{bad json!")


@pytest.mark.parametrize("text", ["1" * 5000, b'{"a": "\x80"}', "[" * 100000],
                         ids=["huge-integer", "not-utf8", "deep-nesting"])
def test_loads_maps_every_rejection_to_parse_error(text):
    with pytest.raises(ParseError, match="invalid JSON"):
        sz.loads(text)


def test_matrix_from_json_reads_quaternion_rows(rng):
    q = rng.standard_normal((4, 4, 4))
    M = sz.matrix_from_json(q.tolist(), 4)
    assert np.array_equal(M.a, q[..., 0] + 1j * q[..., 1])
    assert np.array_equal(M.b, q[..., 2] - 1j * q[..., 3])
    assert sz.matrix_to_json(M) == q.tolist()


_ROW = [[1.0, 0.0, 0.0, 0.0]] * 4


@pytest.mark.parametrize("obj", [
    [_ROW] * 3 + [_ROW[:3]],                  # ragged row
    [_ROW] * 3,                               # 3 x 4
    [row[:3] for row in [_ROW] * 3],          # 3 x 3
    [_ROW] * 3 + [[[1.0, 0.0, 0.0]] * 4],     # 3-number quaternion
    [_ROW] * 3 + [_ROW[:3] + [["x"] * 4]],    # string entry
    [_ROW] * 3 + [_ROW[:3] + [[None] * 4]],   # null entry
    [_ROW] * 3 + [_ROW[:3] + [[float("inf"), 0.0, 0.0, 0.0]]],
    [_ROW] * 3 + [_ROW[:3] + [[10 ** 400, 0, 0, 0]]],
    {"A": 1}, 5, None,
], ids=["ragged", "3x4", "3x3", "short-quaternion", "string", "null",
        "infinite", "huge-integer", "object", "scalar", "null-matrix"])
def test_matrix_from_json_rejects(obj):
    with pytest.raises(ParseError):
        sz.matrix_from_json(obj, 4)


def test_kappa_rejects_missing_field():
    with pytest.raises(ParseError):
        sz.kappa_from_json({"t": 1.0, "psi": 0.0})


SCHEMAS = ("pair", "kappa", "graph", "invariant_tuple")


def _schema_file(name):
    ref = resources.files("loxpairs") / "schemas" / f"{name}.json"
    return json.loads(ref.read_text())


def _refs(node):
    """Every object of node that holds a $ref, depth first."""
    if isinstance(node, dict):
        if "$ref" in node:
            yield node
        for v in node.values():
            yield from _refs(v)
    elif isinstance(node, list):
        for v in node:
            yield from _refs(v)


@pytest.mark.parametrize("path", sorted(
    (resources.files("loxpairs") / "schemas").iterdir(), key=str),
    ids=lambda path: path.name)
def test_schema_file_is_a_valid_schema(path):
    # checked here, and not by _validator in every process: the files
    # are package data, not input from outside the program
    import jsonschema
    schema = json.loads(path.read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("name", SCHEMAS)
def test_schema_refs_are_local_and_acyclic(name):
    # _validator inlines {"$ref": "#/$defs/x"} objects; on these files
    # that replaces every reference and always terminates
    schema = _schema_file(name)
    defs = schema.get("$defs", {})
    prefix = "#/$defs/"
    for node in _refs(schema):
        assert list(node) == ["$ref"], node
        assert node["$ref"].startswith(prefix), node
        assert node["$ref"][len(prefix):] in defs, node

    def reach(def_name, trail):
        assert def_name not in trail, f"cycle {trail + (def_name,)}"
        for node in _refs(defs[def_name]):
            reach(node["$ref"][len(prefix):], trail + (def_name,))

    for def_name in defs:
        reach(def_name, ())


def _documents(space, pair, frames):
    """One valid document per schema."""
    A, B = pair
    fa, fb = frames
    k0 = identity_params(fa)
    kap = TwistBendParams(1.25, -0.3, np.array([0.5, 0.7]), k0.k)
    _, _, t = pair_stage(space, fa, fb)
    return {"pair": sz.pair_to_json(space, A, B),
            "kappa": sz.kappa_to_json(kap),
            "graph": sz.graph_to_json(
                space, [(A, B), (B.inverse(), A.inverse())],
                [(0, 0, 1, 1), (0, 1, 1, 0)], [kap, kap]),
            "invariant_tuple": sz.invariant_tuple_to_json(t)}


# wrong types, a bool for a number, a float for an integer, an
# integer-valued float, which draft 2020-12 counts as an integer, and a
# zero below every bound
_BAD_VALUES = ("x", True, None, 1.5, 3.0, 0, {}, [])


def _set(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _malformed(doc):
    """A fixed corpus of malformed copies of doc.  Along a walk through
    every key of each object and the last entry of each array, each node
    is replaced by each bad value; an object loses each key in turn or
    gains one; an array loses or repeats its last entry."""
    def walk(node, path):
        yield path, node
        if isinstance(node, dict):
            for k in node:
                yield from walk(node[k], path + (k,))
        elif isinstance(node, list) and node:
            yield from walk(node[-1], path + (len(node) - 1,))

    for path, node in walk(doc, ()):
        for value in _BAD_VALUES:
            yield _set(doc, path, value)
        if isinstance(node, dict):
            for k in node:
                yield _set(doc, path, {j: v for j, v in node.items()
                                       if j != k})
            yield _set(doc, path, {**node, "extra": 0})
        if isinstance(node, list) and node:
            yield _set(doc, path, node[:-1])
            yield _set(doc, path, node + node[-1:])


@pytest.mark.parametrize("name", SCHEMAS)
def test_resolved_validator_reports_what_the_raw_schema_reports(
        name, qspace, qpair, qframes):
    # a document the predicate accepts skips jsonschema, so the raw
    # schema must accept it too; every rejection carries jsonschema's
    # message, and the inlined validator reports the raw schema's path
    import jsonschema
    from jsonschema.exceptions import best_match
    doc = _documents(qspace, qpair, qframes)[name]
    schema = _schema_file(name)
    raw = jsonschema.validators.validator_for(schema)(schema)
    check = sz._predicate(name)
    assert check(doc)
    sz.validate_against_schema(doc, name)
    rejected = 0
    for bad in _malformed(doc):
        error = best_match(raw.iter_errors(bad))
        if error is None:
            sz.validate_against_schema(bad, name)
            continue
        rejected += 1
        assert not check(bad)
        with pytest.raises(ParseError) as exc:
            sz.validate_against_schema(bad, name)
        assert str(exc.value) == (f"{name} does not match its schema: "
                                  f"{error.message}")
        mine = best_match(sz._validator(name).iter_errors(bad))
        assert list(mine.path) == list(error.path)
    assert rejected > 50


@pytest.mark.parametrize("name,path,value,valid", [
    ("pair", ("space", "n"), 3.0, True),
    ("graph", ("space", "n"), 3.0, True),
    ("kappa", ("t",), True, False),
    ("graph", ("edges", 0, 4, "t"), True, False),
], ids=["pair-n-3.0", "graph-n-3.0", "kappa-t-true", "graph-t-true"])
def test_predicate_leaves_the_edge_cases_to_jsonschema(
        name, path, value, valid, qspace, qpair, qframes):
    # n = 3.0 is an integer under draft 2020-12, and t = true no number:
    # the predicate rejects both, and jsonschema decides
    doc = _set(_documents(qspace, qpair, qframes)[name], path, value)
    assert not sz._predicate(name)(doc)
    if valid:
        sz.validate_against_schema(doc, name)
    else:
        with pytest.raises(ParseError, match="is not of type 'number'"):
            sz.validate_against_schema(doc, name)


@pytest.mark.parametrize("name", SCHEMAS)
def test_every_shipped_schema_compiles(name):
    assert sz._predicate(name) is not None


@pytest.mark.parametrize("schema", [
    {"type": "object", "properties": {"s": {"pattern": "^a"}}},
    {"type": "array", "items": {"type": "string", "pattern": "^a"}},
    {"type": "array", "items": {"$ref": "#/$defs/x"}},
    {"type": ["number", "null"]},
    {"type": "number", "maxItems": 2},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"enum": [1, 2]},
    {"type": "number", "enum": ["a"]},
    {},
    True,
], ids=["pattern", "nested-pattern", "ref", "type-list",
        "keyword-of-another-type", "additional-schema", "number-enum",
        "typed-enum", "empty", "boolean-schema"])
def test_schemas_beyond_the_known_keywords_compile_to_none(schema):
    assert sz._compile(schema) is None


_HEAD_AND_TAIL = {"type": "array", "prefixItems": [{"type": "integer"}],
                  "items": {"type": "number"}, "maxItems": 3}
_OPEN_OBJECT = {"type": "object", "properties": {"a": {"type": "number"}},
                "required": ["a"]}


@pytest.mark.parametrize("schema,value,holds", [
    (_HEAD_AND_TAIL, [], True),
    (_HEAD_AND_TAIL, [1, 2.5, 3], True),
    (_HEAD_AND_TAIL, [1, "x"], False),
    (_HEAD_AND_TAIL, ["x", 2.5], False),
    (_HEAD_AND_TAIL, [1, 2.5, 3, 4], False),
    (_HEAD_AND_TAIL, [1.0], False),           # jsonschema accepts it
    (_OPEN_OBJECT, {"a": 1, "b": "x"}, True),
    (_OPEN_OBJECT, {"a": "x"}, False),
    (_OPEN_OBJECT, {"b": 1}, False),
    ({"type": "integer", "minimum": 2}, 2, True),
    ({"type": "integer", "minimum": 2}, 1, False),
    ({"type": "number", "exclusiveMinimum": 0}, 0, False),
    ({"type": "number", "exclusiveMinimum": 0}, 1e-300, True),
    ({"enum": ["a", "b"]}, "b", True),
    ({"enum": ["a", "b"]}, "c", False),
])
def test_predicate_of_a_schema_the_files_do_not_hold(schema, value, holds):
    # shapes no shipped schema has: a tail after prefixItems, an open
    # object; what the predicate accepts, jsonschema accepts
    import jsonschema
    schema = {"$schema": sz._DRAFT, **schema}
    assert sz._compile(schema)(value) is holds
    if holds:
        jsonschema.validate(value, schema)


def test_validator_is_built_once_per_schema(qspace, qpair, qframes):
    # valid documents build the predicate once and never the validator;
    # the first invalid document builds the validator, and only it
    doc = _documents(qspace, qpair, qframes)["graph"]
    sz._predicate.cache_clear()
    sz._validator.cache_clear()
    for _ in range(3):
        sz.validate_against_schema(doc, "graph")
    assert sz._predicate.cache_info().misses == 1
    assert sz._validator.cache_info().currsize == 0
    for _ in range(2):
        with pytest.raises(ParseError):
            sz.validate_against_schema({**doc, "extra": 0}, "graph")
    assert sz._predicate.cache_info().misses == 1
    assert sz._validator.cache_info().misses == 1


# entries for a number array: a bool, non-numbers, nested arrays, and
# numbers (NaN, infinity, an integer-valued float) that it accepts
_ENTRIES = (True, "x", None, [], {}, [1.0], float("nan"), float("inf"), 3.0)


def _number_arrays(node):
    """Every array of numbers in node, the arrays themselves."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _number_arrays(v)
    elif isinstance(node, list):
        if node and all(type(x) in (int, float) for x in node):
            yield node
        else:
            for v in node:
                yield from _number_arrays(v)


def _edits(doc, arrays):
    """doc, edited in place and restored after each yield: each entry of
    _ENTRIES at every index of each of its number arrays in arrays, and
    each such array one entry shorter and one longer."""
    for array in arrays:
        for i, old in enumerate(array):
            for value in _ENTRIES:
                array[i] = value
                yield doc
            array[i] = old
        last = array.pop()
        yield doc
        array += [last, last]
        yield doc
        array.pop()


@pytest.mark.parametrize("name", ["pair", "kappa", "graph"])
def test_plain_array_check_reports_what_the_raw_schema_reports(
        name, qspace, qpair, qframes):
    # at any position in any number array, the predicate accepts only
    # what jsonschema accepts, and an edit either passes or fails with
    # jsonschema's message and path
    import jsonschema
    from jsonschema.exceptions import best_match
    doc = sz.loads(sz.dumps(_documents(qspace, qpair, qframes)[name]))
    schema = _schema_file(name)
    raw = jsonschema.validators.validator_for(schema)(schema)
    arrays = list(_number_arrays(doc))
    if name == "graph":
        # its pants matrices follow $defs/matrix, as the pair's do, and
        # the pair case edits every entry of those; here the first and
        # the last quaternion of each matrix, which keeps the raw
        # validator's 4 ms per graph within a few seconds in all
        mats = [m for pants in doc["pants"] for m in pants.values()]
        inner = {id(q) for m in mats for row in m for q in row}
        ends = {id(q) for m in mats for q in (m[0][0], m[-1][-1])}
        arrays = [a for a in arrays if id(a) not in inner or id(a) in ends]
    check = sz._predicate(name)
    outcomes = set()
    for bad in _edits(doc, arrays):
        error = best_match(raw.iter_errors(bad))
        mine = best_match(sz._validator(name).iter_errors(bad))
        assert error is None or not check(bad)
        try:
            sz.validate_against_schema(bad, name)
            got = None
        except ParseError as exc:
            got = str(exc)
        if error is None:
            assert got is None and mine is None
        else:
            assert got == (f"{name} does not match its schema: "
                           f"{error.message}")
            assert list(mine.path) == list(error.path)
        outcomes.add(error is None)
    assert outcomes == {True, False}
    sz.validate_against_schema(doc, name)


_NO_JSONSCHEMA_PATHS = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, %r)
import numpy as np
from loxpairs import cli, serialize as sz
from loxpairs.spectral import eigen_frame
from loxpairs.twistbend import TwistBendParams, identity_params, pants_groups

with tempfile.TemporaryDirectory() as tmp:
    def path(name):
        return os.path.join(tmp, name)

    def run(*argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", path("out.json")])
        return code, err.getvalue().strip()

    def read(name):
        with open(path(name)) as fh:
            return sz.loads(fh.read())

    def write(name, obj):
        with open(path(name), "w") as fh:
            fh.write(sz.dumps(obj))
        return path(name)

    assert run("generate", "--seed", "7", "--mode", "strong") == (0, "")
    os.replace(path("out.json"), path("pair.json"))
    assert run("generate", "--seed", "8") == (0, "")
    os.replace(path("out.json"), path("other.json"))
    space, A, B = sz.pair_from_json(read("pair.json"))
    kappa = sz.kappa_to_json(TwistBendParams(
        1.1, 0.2, np.array([0.3, -0.1]),
        identity_params(eigen_frame(space, A)).k))
    edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
    pairs = [(A, B), (B.inverse(), A.inverse())]
    pants = pants_groups(space, pairs)
    graph = sz.graph_to_json(space, pairs, edges, [
        identity_params(pants[i].frames[si]) for i, si, _, _ in edges])
    pair, kpath, gpath = path("pair.json"), write("kappa.json", kappa), \
        write("graph.json", graph)
    for argv in (["classify", "--in", pair], ["invariants", "--in", pair],
                 ["conjugacy-test", "--in", pair, "--in", path("other.json")],
                 ["twist-bend", "--in", pair, "--in", kpath],
                 ["assemble", "--in", gpath]):
        assert run(*argv) == (0, ""), argv
    sz.pair_from_json(read("pair.json"))
    sz.kappa_from_json(read("kappa.json"))
    sz.graph_from_json(read("graph.json"))
    print(sorted(k for k in sys.modules if k.split(".")[0] == "jsonschema"))
    write("bad.json", {**read("pair.json"), "extra": 0})
    print(json.dumps(run("classify", "--in", path("bad.json"))))
"""


def test_valid_files_never_load_jsonschema():
    # the six commands on valid files and the three parsers on valid
    # documents decide by the predicates alone, in a fresh interpreter;
    # an invalid pair file still exits 2 with jsonschema's message
    import jsonschema
    import loxpairs
    root = str(pathlib.Path(loxpairs.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _NO_JSONSCHEMA_PATHS % root],
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    schema = _schema_file("pair")
    error = jsonschema.validators.validator_for(schema)(schema).iter_errors(
        {"extra": 0})
    message = next(e.message for e in error if e.validator
                   == "additionalProperties")
    assert out == ["[]", json.dumps(
        [2, f"degenerate input: pair does not match its schema: "
            f"{message}"])]


# what json.loads returns: lone surrogates among the characters, and
# integers and floats of any size
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner) | st.dictionaries(
        st.text(st.characters(exclude_categories=())), inner),
    max_leaves=40)


@given(_JSON_VALUES)
@example(float("nan"))
@example([float("inf"), -float("inf"), -0.0, 1e308, 5e-324])
@example(10 ** 100)
@example([True, 1.0, 2, False, -(10 ** 30), 0.5])
@example({"\u00e9\x00\n": "\ud800\x1f\u2028 \"\\", "": []})
@example([[], {}, [[]], {"a": {}}, [[[1.0, float("nan")]]]])
def test_dumps_writes_what_json_writes(value):
    assert sz.dumps(value) \
        == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dumps_writes_tuples_and_float_subclasses_as_json_does():
    value = {"t": (np.float64(0.1), np.float64(math.inf), (1, "x"))}
    assert sz.dumps(value) \
        == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [object(), {1, 2}, [np.float32(1.0)],
                                   {"a": b"x"}, np.int64(3)],
                         ids=["object", "set", "float32", "bytes", "int64"])
def test_dumps_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        sz.dumps(value)


@pytest.mark.parametrize("name", SCHEMAS)
def test_no_schema_reads_item_annotations(name):
    # the predicate records no annotations, which unevaluatedItems
    # would read; _compile does not know the keyword
    assert "unevaluatedItems" not in json.dumps(_schema_file(name))
