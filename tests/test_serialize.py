import numpy as np
import pytest

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
    kap = TwistBendParams(1.25, -0.3, 0.5, 0.7, k0.k1, k0.k2, k0.k3)
    obj = sz.kappa_to_json(kap)
    sz.validate_against_schema(obj, "kappa")
    kap2 = sz.kappa_from_json(sz.loads(sz.dumps(obj)))
    assert (kap2.t, kap2.psi, kap2.xi1, kap2.xi2) == (1.25, -0.3, 0.5, 0.7)
    assert np.array_equal(kap.k1, kap2.k1)


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
