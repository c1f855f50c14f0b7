"""Property guard on CLI input: mutated pair and graph files exit 0 or 2."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loxpairs import serialize as sz
from loxpairs.cli import main
from loxpairs.generate import generate_pair
from loxpairs.hermitian import HermitianSpace
from loxpairs.twistbend import PantsGroup, identity_params

_SPACE = HermitianSpace(3, "quaternion")
_A, _B = generate_pair(_SPACE, seed=7, mode="strong")
VALID = sz.pair_to_json(_SPACE, _A, _B)
_EDGES = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
VALID_GRAPH = sz.graph_to_json(
    _SPACE, [(_A, _B), (_B.inverse(), _A.inverse())], _EDGES,
    [identity_params(PantsGroup(_SPACE, _A, _B).frames[e[1]])
     for e in _EDGES])

_JUNK = st.one_of(st.text(max_size=4), st.none(),
                  st.lists(st.floats(allow_nan=False), max_size=2))


def _mutate_matrix(draw, holder, kind):
    """Drop or duplicate one row, quaternion or number of holder's A or
    B, or swap one number for junk."""
    # depth 1 picks a row, 2 a quaternion, 3 one of its numbers
    depth = 3 if kind == "swap" else draw(st.integers(1, 3))
    container = holder[draw(st.sampled_from(["A", "B"]))]
    for _ in range(depth - 1):
        container = container[draw(st.integers(0, len(container) - 1))]
    i = draw(st.integers(0, len(container) - 1))
    if kind == "drop":
        del container[i]
    elif kind == "duplicate":
        container.insert(i, copy.deepcopy(container[i]))
    else:
        container[i] = draw(_JUNK)


@st.composite
def mutated_pairs(draw):
    """A valid pair file with one row, quaternion or number dropped or
    duplicated, one number swapped for junk, or n changed."""
    obj = copy.deepcopy(VALID)
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "n"]))
    if kind == "n":
        obj["space"]["n"] = draw(st.one_of(st.integers(-1, 6), _JUNK))
        return obj
    _mutate_matrix(draw, obj, kind)
    return obj


@st.composite
def mutated_graphs(draw):
    """A valid gluing graph with one row, quaternion or number of one
    pants matrix dropped, duplicated or swapped for junk."""
    obj = copy.deepcopy(VALID_GRAPH)
    pants = obj["pants"][draw(st.integers(0, len(obj["pants"]) - 1))]
    _mutate_matrix(draw, pants,
                   draw(st.sampled_from(["drop", "duplicate", "swap"])))
    return obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(obj=mutated_pairs())
def test_mutated_pair_file_exits_0_or_2(workdir, obj):
    path = workdir / "pair.json"
    path.write_text(json.dumps(obj))
    for command in ("classify", "invariants"):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--in", str(path),
                         "--out", str(workdir / "out.json")])
        assert code in (0, 2)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(obj=mutated_graphs())
def test_mutated_graph_file_exits_0_or_2(workdir, obj):
    path = workdir / "graph.json"
    path.write_text(json.dumps(obj))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["assemble", "--in", str(path),
                     "--out", str(workdir / "out.json")])
    assert code in (0, 2)
