import numpy as np
import pytest

from loxpairs.errors import DegenerateConfiguration
from loxpairs.generate import generate_pair
from loxpairs.genericity import genericity_report
from loxpairs.gram import normalize_lifts
from loxpairs.hermitian import HermitianSpace
from loxpairs.invariants import (angular_invariant, cross_ratio,
                                 pair_invariants, sp1_orbit_equal,
                                 triple_product)
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.quat import Quaternion
from loxpairs.spectral import eigen_frame


def _invariants(space, A, B):
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    rep = genericity_report(space, fa, fb)
    return pair_invariants(space, fa, fb, report=rep)


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
    t1 = triple_product(cspace, *zs).to_complex(tol=1e-6)
    t2 = triple_product(cspace, zs[0], zs[2], zs[1]).to_complex(tol=1e-6)
    assert np.isclose(t1.imag, -t2.imag, atol=1e-8)
    assert np.isclose(t1.real, t2.real, atol=1e-8)


def test_cross_ratio_invariant_under_isometry(space, rng):
    zs = [_null_lift(space, rng) for _ in range(4)]
    U = space.random_isometry(rng)
    x1 = cross_ratio(space, *zs)
    x2 = cross_ratio(space, *(U @ z for z in zs))
    # similarity class is preserved: compare real part and modulus
    assert np.isclose(x1.real, x2.real, atol=1e-8 * (1 + abs(x1)))
    assert np.isclose(abs(x1), abs(x2), atol=1e-8 * (1 + abs(x1)))


def test_tuple_shapes(qspace, qpair):
    t = _invariants(qspace, *qpair)
    n = qspace.n
    assert t.angular.shape == (3,)
    assert len(t.alpha) == n - 2 and len(t.beta) == n - 2
    assert len(t.mixed) == n - 2 and len(t.mixed[0]) == n - 2
    assert len(t.eta_A) == n - 2 and len(t.eta_B) == n - 2
    # attracting point plus the n-1 positive projective points
    assert len(t.projective_A) == n and len(t.projective_B) == n


def test_conjugation_invariance(space, rng):
    A, B = generate_pair(space, seed=21, mode="strong")
    t1 = _invariants(space, A, B)
    C = space.random_isometry(rng)
    t2 = _invariants(space, conjugate_by(C, A), conjugate_by(C, B))
    tol = 1e-8 if space.field == "quaternion" else 1e-9
    assert sp1_orbit_equal(t1, t2, tol=tol) is not None
    assert np.allclose(t1.angular, t2.angular, atol=tol)


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
    assert sp1_orbit_equal(t, t, tol=1e-12) == Quaternion(1)

    def bar(qs):
        return [q.conjugate() for q in qs]

    tbar = replace(t, X1=t.X1.conjugate(), X2=t.X2.conjugate(),
                   X3=t.X3.conjugate(), alpha=bar(t.alpha),
                   beta=bar(t.beta), mixed=[bar(r) for r in t.mixed],
                   eta_A=bar(t.eta_A), eta_B=bar(t.eta_B))
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
    rep = genericity_report(space, fa, fb)
    t = normalize_lifts(space, fa, fb, report=rep)
    inv = pair_invariants(space, fa, fb, report=rep, tuple_=t)
    ip = space.inner
    p1, p2, p3, p4 = t.lifts[:4]
    apos, bpos = t.lifts[4:space.n + 2], t.lifts[space.n + 2:]

    def X(z1, z2, z3, z4):
        return ip(z3, z1) * ip(z3, z2).inverse() * ip(z4, z2) \
            * ip(z4, z1).inverse()

    def close(q, ref):
        assert abs(q - ref) <= 1e-12 * abs(ref)

    close(inv.X1, X(p1, p2, p3, p4))
    for q, xk in zip(inv.alpha, bpos):
        close(q, X(p1, p2, p3, xk))
    for row, xj in zip(inv.mixed, apos):
        for q, xk in zip(row, bpos):
            close(q, X(p3, xk, p2, xj))
    for q, xj in zip(inv.eta_A, apos):
        close(q, ip(p3, xj) * ip(p3, p4).inverse() * ip(xj, p4)
              * ip(xj, xj).inverse())
    for q, xk in zip(inv.eta_B, bpos):
        close(q, ip(p1, xk) * ip(p1, p2).inverse() * ip(xk, p2)
              * ip(xk, xk).inverse())


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_array_invariants_match_quaternion_reference(n, field):
    # every entry of the tuple against Quaternion-object arithmetic on
    # single pairings, the way the invariants are defined
    space = HermitianSpace(n, field)
    A, B = generate_pair(space, seed=n + 40, mode="strong")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    rep = genericity_report(space, fa, fb)
    t = normalize_lifts(space, fa, fb, report=rep)
    inv = pair_invariants(space, fa, fb, report=rep, tuple_=t)
    p = t.lifts

    def g(i, j):
        return space.inner(p[i], p[j])

    def X(i1, i2, i3, i4):
        return g(i3, i1) * g(i3, i2).inverse() * g(i4, i2) \
            * g(i4, i1).inverse()

    def angle(i1, i2, i3):
        T = g(i1, i2) * g(i2, i3) * g(i3, i1)
        return np.arccos(np.clip(-T.w / abs(T), -1.0, 1.0))

    apos, bpos = range(4, n + 2), range(n + 2, 2 * n)
    expect = [X(0, 1, 2, 3), X(0, 2, 1, 3), X(1, 3, 2, 0)]
    expect += [X(0, 1, 2, k) for k in bpos]
    expect += [X(2, 3, 0, j) for j in apos]
    expect += [X(2, k, 1, j) for j in apos for k in bpos]
    expect += [X(j, 3, 2, j) for j in apos]
    expect += [X(k, 1, 0, k) for k in bpos]
    got = inv.quaternion_entries()
    assert len(got) == len(expect)
    for q, ref in zip(got, expect):
        assert abs(q - ref) <= 1e-12 * abs(ref)
    ref = [angle(0, 1, 2), angle(0, 1, 3), angle(1, 2, 3)]
    assert np.allclose(inv.angular, ref, rtol=1e-12, atol=0)
    zs = p[:4]
    assert abs(cross_ratio(space, *zs) - expect[0]) <= 1e-12 * abs(expect[0])
    T = g(0, 1) * g(1, 2) * g(2, 0)
    assert abs(triple_product(space, *zs[:3]) - T) <= 1e-12 * abs(T)
    assert np.isclose(angular_invariant(space, *zs[:3]), ref[0],
                      rtol=1e-12, atol=0)
