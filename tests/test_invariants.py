import numpy as np
import pytest

from loxpairs.errors import DegenerateConfiguration
from loxpairs.generate import generate_pair
from loxpairs.hermitian import HermitianSpace
from loxpairs.invariants import (angular_invariant, cross_ratio,
                                 sp1_orbit_equal, triple_product)
from conftest import hinv, hmul, pair_stage
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.spectral import eigen_frame


def _invariants(space, A, B):
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    return pair_stage(space, fa, fb)[2]


def _null_lift(space, rng):
    z = space._random_qarray(rng, space.dim)
    z.a[-1], z.b[-1] = 1.0, 0.0
    mid = float(np.sum(np.abs(z.a[1:-1]) ** 2 + np.abs(z.b[1:-1]) ** 2))
    z.a[0] = -mid / 2.0 + 1j * z.a[0].imag
    if space.field == "complex":
        z.b[:] = 0.0
    assert abs(space.norm_sq(z)) < 1e-9
    return z


def test_angular_invariant_range(space, rng):
    for _ in range(20):
        zs = [_null_lift(space, rng) for _ in range(3)]
        a = angular_invariant(space, *zs)
        assert 0.0 <= a <= np.pi


def test_angular_invariant_odd_under_swap(cspace, rng):
    # complex case: swapping two points flips the sign of arg(-T), so
    # the arccos value reflects through pi/2... check via triple product
    zs = [_null_lift(cspace, rng) for _ in range(3)]
    t1 = triple_product(cspace, *zs)
    t2 = triple_product(cspace, zs[0], zs[2], zs[1])
    assert t1.b == 0 and t2.b == 0
    t1, t2 = complex(t1.a), complex(t2.a)
    assert np.isclose(t1.imag, -t2.imag, atol=1e-8)
    assert np.isclose(t1.real, t2.real, atol=1e-8)


def test_cross_ratio_invariant_under_isometry(space, rng):
    zs = [_null_lift(space, rng) for _ in range(4)]
    U = space.random_isometry(rng)
    x1 = cross_ratio(space, *zs)
    x2 = cross_ratio(space, *(U @ z for z in zs))
    # similarity class is preserved: compare real part and modulus
    tol = 1e-8 * (1 + x1.moduli())
    assert np.isclose(x1.a.real, x2.a.real, atol=tol)
    assert np.isclose(x1.moduli(), x2.moduli(), atol=tol)


def test_tuple_shapes(qspace, qpair):
    t = _invariants(qspace, *qpair)
    n = qspace.n
    assert t.angular.shape == (3,)
    layout = t.layout()
    for name in ("X1", "X2", "X3"):
        assert layout[name].shape == ()
    for name in ("alpha", "beta", "eta_A", "eta_B"):
        assert layout[name].shape == (n - 2,)
    assert layout["mixed"].shape == (n - 2, n - 2)
    # every entry has exactly one name
    idx = np.sort(np.concatenate([i.ravel() for i in layout.values()]))
    assert np.array_equal(idx, np.arange(t.entries.shape[0]))
    # attracting point plus the n-1 positive projective points
    assert len(t.projective_A) == n and len(t.projective_B) == n


def test_conjugation_invariance(space, rng):
    A, B = generate_pair(space, seed=21, mode="strong")
    t1 = _invariants(space, A, B)
    C = space.random_isometry(rng)
    t2 = _invariants(space, conjugate_by(C, A), conjugate_by(C, B))
    tol = 1e-8 if space.field == "quaternion" else 1e-9
    assert sp1_orbit_equal(t1, t2, tol=tol) is not None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_orbit_test_compares_the_angular_invariants(space, k):
    from dataclasses import replace
    t = _invariants(space, *generate_pair(space, seed=21, mode="strong"))
    tol = 1e-8
    assert sp1_orbit_equal(t, t, tol=tol) is not None
    angular = t.angular.copy()
    angular[k] += 10 * tol
    assert sp1_orbit_equal(t, replace(t, angular=angular), tol=tol) is None


def test_distinct_pairs_have_distinct_tuples(qspace):
    t1 = _invariants(qspace, *generate_pair(qspace, seed=1, mode="strong"))
    t2 = _invariants(qspace, *generate_pair(qspace, seed=2, mode="strong"))
    assert sp1_orbit_equal(t1, t2, tol=1e-6) is None


def test_sp1_orbit_reflexive(qspace, qpair):
    t = _invariants(qspace, *qpair)
    mu = sp1_orbit_equal(t, t, tol=1e-12)
    assert mu is not None


def test_complex_orbit_rejects_conjugated_tuple(cspace, cpair):
    from dataclasses import replace
    t = _invariants(cspace, *cpair)
    mu = sp1_orbit_equal(t, t, tol=1e-12)
    assert np.array_equal(mu.components(), [1, 0, 0, 0])

    # every quaternion invariant conjugated
    tbar = replace(t, entries=QArray(np.conj(t.entries.a), -t.entries.b))
    assert sp1_orbit_equal(t, tbar, tol=1e-8) is None


def test_degenerate_triple_raises(qspace, rng):
    z = _null_lift(qspace, rng)
    w = _null_lift(qspace, rng)
    with pytest.raises(DegenerateConfiguration):
        # a repeated point kills the triple product
        angular_invariant(qspace, z, z, w)


@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_pair_invariants_match_per_pair_formulas(field):
    space = HermitianSpace(4, field)
    A, B = generate_pair(space, seed=3, mode="strong")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    _, t, inv = pair_stage(space, fa, fb)
    p = [t.P.column(j) for j in range(2 * space.n)]
    p1, p2, p3, p4 = p[:4]
    apos, bpos = p[4:space.n + 2], p[space.n + 2:]

    def ip(z, w):
        return space.inner(z, w).components()

    def X(z1, z2, z3, z4):
        return hmul(ip(z3, z1), hinv(ip(z3, z2)), ip(z4, z2),
                    hinv(ip(z4, z1)))

    def close(q, ref):
        assert np.linalg.norm(q - ref) <= 1e-12 * np.linalg.norm(ref)

    q, layout = inv.entries.components(), inv.layout()
    close(q[layout["X1"]], X(p1, p2, p3, p4))
    for i, xk in zip(layout["alpha"], bpos):
        close(q[i], X(p1, p2, p3, xk))
    for row, xj in zip(layout["mixed"], apos):
        for i, xk in zip(row, bpos):
            close(q[i], X(p3, xk, p2, xj))
    for i, xj in zip(layout["eta_A"], apos):
        close(q[i], hmul(ip(p3, xj), hinv(ip(p3, p4)), ip(xj, p4),
                         hinv(ip(xj, xj))))
    for i, xk in zip(layout["eta_B"], bpos):
        close(q[i], hmul(ip(p1, xk), hinv(ip(p1, p2)), ip(xk, p2),
                         hinv(ip(xk, xk))))


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_array_invariants_match_quaternion_reference(n, field):
    # every entry of the tuple against the matrix model of quaternion
    # arithmetic on single pairings, the way the invariants are defined
    space = HermitianSpace(n, field)
    A, B = generate_pair(space, seed=n + 40, mode="strong")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    _, t, inv = pair_stage(space, fa, fb)
    p = [t.P.column(j) for j in range(2 * n)]

    def g(i, j):
        return space.inner(p[i], p[j]).components()

    def X(i1, i2, i3, i4):
        return hmul(g(i3, i1), hinv(g(i3, i2)), g(i4, i2), hinv(g(i4, i1)))

    def angle(i1, i2, i3):
        T = hmul(g(i1, i2), g(i2, i3), g(i3, i1))
        return np.arccos(np.clip(-T[0] / np.linalg.norm(T), -1.0, 1.0))

    apos, bpos = range(4, n + 2), range(n + 2, 2 * n)
    expect = [X(0, 1, 2, 3), X(0, 2, 1, 3), X(1, 3, 2, 0)]
    expect += [X(0, 1, 2, k) for k in bpos]
    expect += [X(2, 3, 0, j) for j in apos]
    expect += [X(2, k, 1, j) for j in apos for k in bpos]
    expect += [X(j, 3, 2, j) for j in apos]
    expect += [X(k, 1, 0, k) for k in bpos]
    norm = np.linalg.norm
    got = inv.entries.components()
    assert len(got) == len(expect)
    for q, ref in zip(got, expect):
        assert norm(q - ref) <= 1e-12 * norm(ref)
    ref = [angle(0, 1, 2), angle(0, 1, 3), angle(1, 2, 3)]
    assert np.allclose(inv.angular, ref, rtol=1e-12, atol=0)
    zs = p[:4]
    x = cross_ratio(space, *zs).components()
    assert norm(x - expect[0]) <= 1e-12 * norm(expect[0])
    T = hmul(g(0, 1), g(1, 2), g(2, 0))
    assert norm(triple_product(space, *zs[:3]).components() - T) \
        <= 1e-12 * norm(T)
    assert np.isclose(angular_invariant(space, *zs[:3]), ref[0],
                      rtol=1e-12, atol=0)
