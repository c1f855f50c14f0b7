import numpy as np
import pytest

from conftest import as_matrix, hinv
from loxpairs.errors import DegenerateInputError, LoxpairsError
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import (QArray, conjugate_by,
                              quaternionic_rank)


def _random_qarray(rng, shape):
    return QArray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_product_matches_embedding(rng):
    A = _random_qarray(rng, (4, 4))
    B = _random_qarray(rng, (4, 4))
    assert np.allclose((A @ B).embed(), A.embed() @ B.embed())


def test_adjoint_matches_embedding(rng):
    A = _random_qarray(rng, (4, 4))
    assert np.allclose(A.adjoint().embed(), A.embed().conj().T)


def test_components_of_two_shapes_raise():
    with pytest.raises(LoxpairsError, match="component shapes differ"):
        QArray(np.zeros(3), np.zeros(4))


def test_adjoint_of_a_vector_raises(rng):
    with pytest.raises(LoxpairsError, match="adjoint needs a matrix"):
        _random_qarray(rng, 4).adjoint()


def test_embed_round_trip(rng):
    A = _random_qarray(rng, (4, 4))
    B = QArray.from_embed(A.embed())
    assert np.allclose(A.a, B.a) and np.allclose(A.b, B.b)


def test_inverse(rng):
    A = _random_qarray(rng, (4, 4))
    assert (A @ A.inverse() - QArray.eye(4)).max_abs() < 1e-10


def test_inverse_of_singular_matrix_is_typed():
    with pytest.raises(DegenerateInputError, match="singular matrix"):
        QArray.zeros((4, 4)).inverse()


def test_matrix_vector_action_matches_embedding(rng):
    A = _random_qarray(rng, (4, 4))
    v = _random_qarray(rng, 4)
    out = A @ v
    emb = A.embed() @ np.concatenate([v.a, v.b])
    assert np.allclose(np.concatenate([out.a, out.b]), emb)


def test_right_scalar_multiplication(rng):
    # (A v) q = A (v q): right H-module action commutes with A
    A = _random_qarray(rng, (4, 4))
    v = _random_qarray(rng, 4)
    q = QArray.from_components(rng.standard_normal(4))
    lhs = (A @ v) * q
    rhs = A @ (v * q)
    assert (lhs - rhs).max_abs() < 1e-12


def test_rmul_entrywise(rng):
    # v * q scales each entry on the right, in the matrix model
    v = _random_qarray(rng, 3)
    q = rng.standard_normal(4)
    w = v * QArray.from_components(q)
    assert w.shape == (3,)
    for vi, wi in zip(v.components(), w.components()):
        assert np.linalg.norm(as_matrix(vi) @ q - wi) <= 1e-12


def test_from_columns_and_column(rng):
    cols = [_random_qarray(rng, 4) for _ in range(4)]
    M = QArray.from_columns(cols)
    for j, c in enumerate(cols):
        assert (M.column(j) - c).max_abs() == 0


def test_diag_and_eye(rng):
    D = QArray.diag([2.0, 1j, -1.0])
    assert np.allclose(D.a, np.diag([2.0, 1j, -1.0]))
    assert np.max(np.abs(D.b)) == 0
    assert (QArray.eye(3) @ D - D).max_abs() == 0
    # a (k, m) stack of values gives the stack of the k diagonals
    values = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    D = QArray.diag(values)
    assert D.shape == (3, 4, 4)
    for k, row in enumerate(values):
        d = QArray.diag(row)
        assert np.array_equal(d.a, np.diag(row))
        assert np.array_equal(D.a[k], d.a) and np.array_equal(D.b[k], d.b)


def test_conjugate_by_and_commutator(rng):
    A = _random_qarray(rng, (4, 4))
    C = _random_qarray(rng, (4, 4))
    assert np.allclose(conjugate_by(C, A).embed(),
                       C.embed() @ A.embed() @ np.linalg.inv(C.embed()))


def test_quaternionic_rank_full_and_deficient(rng):
    vs = [_random_qarray(rng, 4) for _ in range(4)]
    assert quaternionic_rank(QArray.from_columns(vs)) == 4
    q = QArray.from_components(rng.standard_normal(4))
    # a right-scalar multiple spans the same quaternionic line
    assert quaternionic_rank(QArray.from_columns([vs[0], vs[0] * q])) == 1
    assert quaternionic_rank(QArray.from_columns(vs[:2] + [vs[0] * q])) == 2


def test_quaternionic_rank_of_a_stack_is_each_rank(rng):
    # one stacked SVD, one rank per matrix; a single matrix gives an int
    vs = [_random_qarray(rng, 4) for _ in range(3)]
    q = QArray.from_components(rng.standard_normal(4))
    mats = [QArray.from_columns(vs), QArray.from_columns(vs[:2] + [vs[0] * q]),
            QArray.from_columns([vs[1], vs[1] * q, vs[1]]),
            QArray.zeros((4, 3))]
    ranks = quaternionic_rank(QArray.stack(mats), tol=1e-9)
    assert ranks.shape == (4,)
    assert list(ranks) == [3, 2, 1, 0]
    for r, M in zip(ranks, mats):
        single = quaternionic_rank(M, tol=1e-9)
        assert type(single) is int and single == r


def test_complex_mode_rank_ignores_j_line(rng):
    v = QArray(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    c = 0.3 - 1.1j
    assert quaternionic_rank(QArray.from_columns([v, QArray(v.a * c)])) == 1


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 5])
def test_adjoint_and_embed_on_stacks(field, n, rng):
    space = HermitianSpace(n, field)
    S = space._random_qarray(rng, (3, n + 1, n + 1))
    one = [QArray(S.a[k], S.b[k]) for k in range(3)]
    adj, emb = S.adjoint(), S.embed()
    for k, M in enumerate(one):
        assert np.array_equal(adj.a[k], M.adjoint().a)
        assert np.array_equal(adj.b[k], M.adjoint().b)
        assert np.array_equal(emb[k], M.embed())
    back = QArray.from_embed(emb)
    assert np.array_equal(back.a, S.a) and np.array_equal(back.b, S.b)


def test_entrywise_quaternion_algebra(rng):
    X = _random_qarray(rng, (3, 2))
    Y = _random_qarray(rng, (3, 2))
    # every entry against the matrix model on real 4-vectors
    P, R, mods = X * Y, X.reciprocal(), X.moduli()
    x, y = X.components(), Y.components()
    for i in range(3):
        for j in range(2):
            xij = x[i, j]
            assert np.linalg.norm(P.components()[i, j]
                                  - as_matrix(xij) @ y[i, j]) <= 1e-12
            assert np.linalg.norm(R.components()[i, j] - hinv(xij)) <= 1e-12
            assert np.isclose(mods[i, j], np.linalg.norm(xij), rtol=1e-14)
    picked = X.pick([2, 0], 1).components()
    assert np.array_equal(picked, x[[2, 0], 1])
    assert np.array_equal([X.column(j).components()[0]
                           for j in range(X.shape[1])], x[0])
    assert X.pick(2, 1).shape == ()
    assert np.array_equal(X.pick(2, 1).conj().components(),
                          x[2, 1] * [1, -1, -1, -1])
