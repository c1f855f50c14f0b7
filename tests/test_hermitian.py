import numpy as np
import pytest

from conftest import hconj, hmul, hunit
from loxpairs.errors import WrongDimension, WrongField
from loxpairs.hermitian import HermitianSpace, form_matrix, gauge
from loxpairs.qmatrix import QArray


def test_form_matrix_signature():
    H = form_matrix(3)
    eig = np.linalg.eigvalsh(H)
    assert np.sum(eig > 0) == 3 and np.sum(eig < 0) == 1


def test_rejects_unknown_field():
    with pytest.raises(WrongField):
        HermitianSpace(3, "octonion")


def test_rejects_dimension_below_two():
    with pytest.raises(WrongDimension):
        HermitianSpace(1, "complex")


@pytest.mark.parametrize("n", [3.5, 3.0, "3", None])
def test_rejects_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(WrongDimension, match="n must be an integer"):
        HermitianSpace(n, "complex")


def test_accepts_a_numpy_integer_dimension():
    space = HermitianSpace(np.int64(3), "complex")
    assert type(space.n) is int and space.H.shape == (4, 4)


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 5])
def test_gram_matches_inner(n, field, rng):
    # entry (i, j) of the one product is <v_j, v_i>, entry by entry
    space = HermitianSpace(n, field)
    vs = [space._random_qarray(rng, space.dim) for _ in range(2 * n)]
    G = space.gram(QArray.from_columns(vs))
    assert G.shape == (2 * n, 2 * n)
    for i, vi in enumerate(vs):
        for j, vj in enumerate(vs):
            ref = space.inner(vj, vi)
            assert ref.shape == ()
            assert (G.pick(i, j) - ref).moduli() \
                <= 1e-13 * vi.norm() * vj.norm()
    # inner pairs two stacks of rows at once, each row bit for bit as
    # the inner of its own two vectors
    Z, W = QArray.stack(vs), QArray.stack(vs[::-1])
    rows = space.inner(Z, W)
    assert rows.shape == (2 * n,)
    for i, (z, w) in enumerate(zip(vs, vs[::-1])):
        ref = space.inner(z, w)
        assert np.array_equal(rows.a[i], ref.a) \
            and np.array_equal(rows.b[i], ref.b)


def test_inner_hermitian_symmetry(qspace, rng):
    z = qspace._random_qarray(rng, 4)
    w = qspace._random_qarray(rng, 4)
    g = qspace.inner(z, w).components()
    assert np.linalg.norm(qspace.inner(w, z).components() - hconj(g)) \
        <= 1e-12


def test_inner_right_linearity(qspace, rng):
    # <z lam, w mu> = conj(mu) <z, w> lam
    z = qspace._random_qarray(rng, 4)
    w = qspace._random_qarray(rng, 4)
    lam, mu = rng.standard_normal(4), rng.standard_normal(4)
    lhs = qspace.inner(z * QArray.from_components(lam),
                       w * QArray.from_components(mu)).components()
    rhs = hmul(hconj(mu), qspace.inner(z, w).components(), lam)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_norm_sq_is_real(qspace, rng):
    z = qspace._random_qarray(rng, 4)
    w, x, y, zz = qspace.inner(z, z).components()
    assert np.linalg.norm([x, y, zz]) < 1e-12
    assert np.isclose(qspace.norm_sq(z), w)


def test_random_negative_vector(space, rng):
    for _ in range(20):
        z = space.random_negative_vector(rng)
        assert space.norm_sq(z) < 0
        if space.field == "complex":
            assert np.max(np.abs(z.b)) == 0


def test_random_isometry_preserves_form(space, rng):
    for _ in range(10):
        U = space.random_isometry(rng)
        assert space.is_isometry(U)
        z = space._random_qarray(rng, space.dim)
        w = space._random_qarray(rng, space.dim)
        assert (space.inner(U @ z, U @ w) - space.inner(z, w)).moduli() \
            <= 1e-8
        if space.field == "complex":
            assert np.max(np.abs(U.b)) == 0


def test_is_isometry_rejects_generic_matrix(qspace, rng):
    M = qspace._random_qarray(rng, (4, 4))
    assert not qspace.is_isometry(M)


def test_bergman_distance_positive(qspace, rng):
    z = qspace.random_negative_vector(rng)
    w = qspace.random_negative_vector(rng)
    assert qspace.bergman_distance(z, w) > 0
    assert np.isclose(qspace.bergman_distance(z, z), 0, atol=1e-6)


def test_isometries_preserve_bergman_distance(qspace, rng):
    z = qspace.random_negative_vector(rng)
    w = qspace.random_negative_vector(rng)
    U = qspace.random_isometry(rng)
    d0 = qspace.bergman_distance(z, w)
    d1 = qspace.bergman_distance(U @ z, U @ w)
    assert np.isclose(d0, d1, rtol=1e-8)


def test_as_complex_round_trip(space, rng):
    M = space.random_isometry(rng)
    v = space.random_negative_vector(rng)
    for X in (M, v):
        back = space.from_complex(space.as_complex(X))
        assert np.array_equal(back.a, X.a) and np.array_equal(back.b, X.b)
    assert space.as_complex(M).shape[0] == space.units // 2 * space.dim


def _random_complex(rng):
    return np.array([rng.standard_normal(), rng.standard_normal(), 0, 0])


def _qarrays(pairs):
    """The q and the q' of (q, q') pairs of real 4-vectors, as two
    QArrays."""
    z = np.array(pairs, dtype=float).reshape(-1, 2, 4)
    return QArray.from_components(z[:, 0]), QArray.from_components(z[:, 1])


def test_complex_gauge_is_trivial(rng):
    qs = [_random_complex(rng) for _ in range(6)]
    mu = gauge("complex", *_qarrays([(q, q) for q in qs]), 1e-10)
    assert np.array_equal(mu.components(), [1, 0, 0, 0])
    # q -> conj(q) is the Sp(1) move by j, which SU(n,1) does not have
    assert gauge("complex", *_qarrays([(q, hconj(q)) for q in qs]),
                 1e-10) is None
    assert gauge("complex", *_qarrays([(qs[0], hconj(qs[0]))]),
                 1e-10) is None


def test_quaternion_gauge_recovers_unit(rng):
    mu = hunit(rng)
    qs = [rng.standard_normal(4) for _ in range(6)]
    pairs = [(q, hmul(mu, q, hconj(mu))) for q in qs]
    got = gauge("quaternion", *_qarrays(pairs), 1e-10).components()
    # mu is determined up to sign
    assert min(np.linalg.norm(got - mu), np.linalg.norm(got + mu)) <= 1e-9
