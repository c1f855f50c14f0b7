import numpy as np
import pytest

from loxpairs.errors import DegenerateInputError
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import (QArray, commutator, conjugate_by,
                              quaternionic_rank)
from loxpairs.quat import Quaternion


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
    q = Quaternion.from_array(rng.standard_normal(4))
    lhs = (A @ v).rmul(q)
    rhs = A @ v.rmul(q)
    assert (lhs - rhs).max_abs() < 1e-12


def test_rmul_entrywise(rng):
    v = _random_qarray(rng, 3)
    q = Quaternion.from_array(rng.standard_normal(4))
    w = v.rmul(q)
    for i in range(3):
        assert (v.entry(i) * q).isclose(w.entry(i), tol=1e-12)


def test_from_columns_and_column(rng):
    cols = [_random_qarray(rng, 4) for _ in range(4)]
    M = QArray.from_columns(cols)
    for j, c in enumerate(cols):
        assert (M.column(j) - c).max_abs() == 0


def test_diag_and_eye():
    D = QArray.diag([2.0, 1j, -1.0])
    assert np.allclose(D.a, np.diag([2.0, 1j, -1.0]))
    assert np.max(np.abs(D.b)) == 0
    assert (QArray.eye(3) @ D - D).max_abs() == 0


def test_conjugate_by_and_commutator(rng):
    A = _random_qarray(rng, (4, 4))
    C = _random_qarray(rng, (4, 4))
    assert np.allclose(conjugate_by(C, A).embed(),
                       C.embed() @ A.embed() @ np.linalg.inv(C.embed()))
    assert commutator(A, A).allclose(QArray.eye(4), tol=1e-8)


def test_quaternionic_rank_full_and_deficient(rng):
    vs = [_random_qarray(rng, 4) for _ in range(4)]
    assert quaternionic_rank(vs) == 4
    q = Quaternion.from_array(rng.standard_normal(4))
    # a right-scalar multiple spans the same quaternionic line
    assert quaternionic_rank([vs[0], vs[0].rmul(q)]) == 1
    assert quaternionic_rank(vs[:2] + [vs[0].rmul(q)]) == 2


def test_complex_mode_rank_ignores_j_line(rng):
    v = QArray(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    c = 0.3 - 1.1j
    assert quaternionic_rank([v, QArray(v.a * c)]) == 1


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
    P, R, mods = X * Y, X.reciprocal(), X.moduli()
    for i in range(3):
        for j in range(2):
            x, y = X.entry(i, j), Y.entry(i, j)
            assert P.entry(i, j).isclose(x * y, tol=1e-12)
            assert R.entry(i, j).isclose(x.inverse(), tol=1e-12)
            assert np.isclose(mods[i, j], abs(x), rtol=1e-14)
    picked = X.pick([2, 0], 1)
    assert picked.entry(0) == X.entry(2, 1)
    assert picked.entry(1) == X.entry(0, 1)
    assert [c.entry(0) for c in X.columns()] == [X.entry(0, 0), X.entry(0, 1)]
