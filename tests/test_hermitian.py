import numpy as np
import pytest

from loxpairs.errors import WrongDimension, WrongField
from loxpairs.hermitian import HermitianSpace, form_matrix, gauge
from loxpairs.qmatrix import QArray
from loxpairs.quat import Quaternion


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


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 5])
def test_gram_matches_inner(n, field, rng):
    # entry (i, j) of the one product is <v_j, v_i>, entry by entry
    space = HermitianSpace(n, field)
    vs = [space._random_qarray(rng, space.dim) for _ in range(2 * n)]
    G = space.gram(vs)
    assert G.shape == (2 * n, 2 * n)
    for i, vi in enumerate(vs):
        for j, vj in enumerate(vs):
            ref = space.inner(vj, vi)
            assert abs(G.entry(i, j) - ref) <= 1e-13 * vi.norm() * vj.norm()


def test_inner_hermitian_symmetry(qspace, rng):
    z = qspace._random_qarray(rng, 4)
    w = qspace._random_qarray(rng, 4)
    g = qspace.inner(z, w)
    assert qspace.inner(w, z).isclose(g.conjugate(), tol=1e-12)


def test_inner_right_linearity(qspace, rng):
    # <z lam, w mu> = conj(mu) <z, w> lam
    z = qspace._random_qarray(rng, 4)
    w = qspace._random_qarray(rng, 4)
    lam = Quaternion.from_array(rng.standard_normal(4))
    mu = Quaternion.from_array(rng.standard_normal(4))
    lhs = qspace.inner(z.rmul(lam), w.rmul(mu))
    rhs = mu.conjugate() * qspace.inner(z, w) * lam
    assert lhs.isclose(rhs, tol=1e-10)


def test_norm_sq_is_real(qspace, rng):
    z = qspace._random_qarray(rng, 4)
    g = qspace.inner(z, z)
    assert g.imag_norm() < 1e-12
    assert np.isclose(qspace.norm_sq(z), g.real)


def test_random_negative_vector(space, rng):
    for _ in range(20):
        z = space.random_negative_vector(rng)
        assert space.norm_sq(z) < 0
        if space.field == "complex":
            assert np.max(np.abs(z.b)) == 0


def test_standard_lift(qspace, rng):
    z = qspace.random_negative_vector(rng)
    s = z.rmul(qspace.standard_scalar(z))
    assert s.entry(qspace.n).isclose(Quaternion(1, 0, 0, 0), tol=1e-12)


def test_random_isometry_preserves_form(space, rng):
    for _ in range(10):
        U = space.random_isometry(rng)
        assert space.is_isometry(U)
        z = space._random_qarray(rng, space.dim)
        w = space._random_qarray(rng, space.dim)
        assert space.inner(U @ z, U @ w).isclose(space.inner(z, w), tol=1e-8)
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
    c = complex(rng.standard_normal(), rng.standard_normal())
    return Quaternion.from_complex(c)


def test_complex_gauge_is_trivial(rng):
    qs = [_random_complex(rng) for _ in range(6)]
    assert gauge("complex", [(q, q) for q in qs], 1e-10) == Quaternion(1)
    # q -> conj(q) is the Sp(1) move by j, which SU(n,1) does not have
    assert gauge("complex", [(q, q.conjugate()) for q in qs], 1e-10) is None
    assert gauge("complex", [(qs[0], qs[0].conjugate())], 1e-10) is None


def test_quaternion_gauge_recovers_unit(rng):
    mu = Quaternion.from_array(rng.standard_normal(4)).normalized()
    qs = [Quaternion.from_array(rng.standard_normal(4)) for _ in range(6)]
    pairs = [(q, mu * q * mu.conjugate()) for q in qs]
    got = gauge("quaternion", pairs, 1e-10)
    assert got is not None
    # mu is determined up to sign
    assert min(abs(got - mu), abs(got + mu)) <= 1e-9
