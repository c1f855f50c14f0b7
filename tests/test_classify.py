import numpy as np
import pytest

from loxpairs.classify import (_verified_congruence,
                               boundary_quadruple_congruence,
                               congruence_from_tuples, conjugacy_test,
                               invariant_map_rank)
from loxpairs.errors import (NormalizationImpossible, NotNonsingular,
                             VerificationFailed)
from loxpairs.generate import generate_pair
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by, quaternionic_rank
from loxpairs.quat import Quaternion


def _null_lift(space, rng):
    z = space._random_qarray(rng, space.dim)
    z.a[-1], z.b[-1] = 1.0, 0.0
    mid = float(np.sum(np.abs(z.a[1:-1]) ** 2 + np.abs(z.b[1:-1]) ** 2))
    z.a[0] = -mid / 2.0 + 1j * z.a[0].imag
    if space.field == "complex":
        z.b[:] = 0.0
    return z


def test_round_trip(space, rng):
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    A2, B2 = conjugate_by(C, A), conjugate_by(C, B)
    res = conjugacy_test(space, A, B, A2, B2)
    assert res.conjugate and res.stage == "verified"
    D = res.conjugator
    assert (conjugate_by(D, A) - A2).max_abs() < 1e-7
    assert (conjugate_by(D, B) - B2).max_abs() < 1e-7


def test_strong_mode_round_trip(space, rng):
    A, B = generate_pair(space, seed=33, mode="strong")
    C = space.random_isometry(rng)
    res = conjugacy_test(space, A, B, conjugate_by(C, A),
                         conjugate_by(C, B), mode="strong")
    assert res.conjugate


def test_different_spectra_detected_by_trace(space):
    A, B = generate_pair(space, seed=1, mode="strong")
    A2, B2 = generate_pair(space, seed=2, mode="strong")
    res = conjugacy_test(space, A, B, A2, B2)
    assert not res.conjugate
    assert res.stage in ("real-trace", "tuple")
    assert res.conjugator is None


def test_same_spectra_different_pair_detected(qspace, rng):
    # same diagonal models, independently conjugated generators: the
    # traces agree element-wise but the pair invariants do not
    A, B = generate_pair(qspace, seed=8, mode="strong")
    Q1 = qspace.random_isometry(rng)
    Q2 = qspace.random_isometry(rng)
    A2, B2 = conjugate_by(Q1, A), conjugate_by(Q2, B)
    res = conjugacy_test(qspace, A, B, A2, B2)
    if res.conjugate:
        # a coincidence is possible in principle; the conjugator must
        # then be genuine
        D = res.conjugator
        assert (conjugate_by(D, A) - A2).max_abs() < 1e-6
    else:
        assert res.stage in ("real-trace", "tuple", "projective-points")


def test_strong_mode_requires_nonsingular(qspace, rng):
    A, B = generate_pair(qspace, seed=3, mode="weak")
    from loxpairs.genericity import genericity_report
    from loxpairs.spectral import eigen_frame
    rep = genericity_report(qspace, eigen_frame(qspace, A),
                            eigen_frame(qspace, B))
    if rep.nonsingular:
        pytest.skip("weak seed happened to be non-singular")
    with pytest.raises(NotNonsingular):
        conjugacy_test(qspace, A, B, A, B, mode="strong")


def test_quadruple_congruence(space, rng):
    for _ in range(5):
        zs = [_null_lift(space, rng) for _ in range(4)]
        if quaternionic_rank(zs) < min(4, space.dim):
            continue
        U = space.random_isometry(rng)
        ws = [U @ z for z in zs]
        h = boundary_quadruple_congruence(space, zs, ws)
        assert h is not None
        assert space.is_isometry(h, tol=1e-6 * (1 + h.max_abs()) ** 2)
        for z, w in zip(zs, ws):
            assert quaternionic_rank([h @ z, w], tol=1e-6) == 1


def test_quadruple_congruence_rescaled_lifts(qspace, rng):
    zs = [_null_lift(qspace, rng) for _ in range(4)]
    U = qspace.random_isometry(rng)
    ws = []
    for z in zs:
        u = Quaternion.from_array(rng.standard_normal(4))
        ws.append((U @ z).rmul(u * Quaternion(abs(u), 0, 0, 0).inverse()))
    h = boundary_quadruple_congruence(qspace, zs, ws)
    assert h is not None
    for z, w in zip(zs, ws):
        assert quaternionic_rank([h @ z, w], tol=1e-6) == 1


def test_quadruple_congruence_rejects_perturbed(space, rng):
    zs = [_null_lift(space, rng) for _ in range(4)]
    U = space.random_isometry(rng)
    ws = [U @ z for z in zs]
    bad = _null_lift(space, rng)
    assert boundary_quadruple_congruence(space, zs, ws[:3] + [bad]) is None


def test_quadruple_congruence_higher_dimension(rng):
    # n = 4 exercises the orthogonal-complement extension of the map
    space = HermitianSpace(4, "quaternion")
    zs = [_null_lift(space, rng) for _ in range(4)]
    U = space.random_isometry(rng)
    ws = [U @ z for z in zs]
    h = boundary_quadruple_congruence(space, zs, ws)
    assert h is not None
    for z, w in zip(zs, ws):
        assert quaternionic_rank([h @ z, w], tol=1e-6) == 1


def _vec(coords):
    return QArray(np.array(coords, dtype=complex))


@pytest.mark.parametrize("case", ["coincident-first", "repeated-middle"])
def test_quadruple_coincident_points_raise(space, case):
    e4 = _vec([0, 0, 0, 1])
    p = _vec([-0.5, 1, 0, 1])
    q = _vec([-0.5, 0, 1, 1])
    zs = {"coincident-first": [e4, e4.scale(2.0), p, q],
          "repeated-middle": [e4, p, p, q]}[case]
    with pytest.raises(NormalizationImpossible):
        boundary_quadruple_congruence(space, zs, zs)


@pytest.mark.parametrize("wrong", ["image", "pair"])
def test_verified_congruence_rejects_one_wrong_image(space, rng, wrong):
    U = space.random_isometry(rng)
    basis = [QArray.eye(space.dim).column(i) for i in range(space.dim)]
    images = [U @ v for v in basis]
    pairs = list(zip(basis, images))
    C = _verified_congruence(space, basis, images, pairs, 1e-8)
    assert (C - U).max_abs() < 1e-10
    bad = images[1] + images[2].scale(0.1)
    if wrong == "image":
        images[1] = bad
    else:
        pairs[1] = (basis[1], bad)
    with pytest.raises(VerificationFailed):
        _verified_congruence(space, basis, images, pairs, 1e-8)


def test_congruence_from_tuples_identity(qspace):
    from loxpairs.genericity import genericity_report
    from loxpairs.gram import normalize_lifts
    from loxpairs.spectral import eigen_frame
    A, B = generate_pair(qspace, seed=12, mode="strong")
    fa, fb = eigen_frame(qspace, A), eigen_frame(qspace, B)
    rep = genericity_report(qspace, fa, fb)
    t = normalize_lifts(qspace, fa, fb, rep)
    C = congruence_from_tuples(t, t)
    assert C is not None
    assert (C - QArray.eye(qspace.dim)).max_abs() < 1e-7


def test_rank_cut_ignores_noise_tail():
    from loxpairs.classify import _rank_cut
    # a clean cut after five values, then a sub-eps tail whose own
    # ratios (1e-35 / 1e-59) dwarf the real gap
    sv = np.array([1.0, 0.8, 0.5, 0.3, 7e-6, 5e-18, 3e-20, 1e-35, 1e-59])
    rank, gap = _rank_cut(sv, 72)
    assert rank == 5
    assert np.isclose(gap, 7e-6 / 5e-18)


def _flat_one(R, units):
    return np.concatenate([R.a.ravel().real, R.a.ravel().imag,
                           R.b.ravel().real, R.b.ravel().imag][:units])


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 5])
def test_linearization_matches_per_direction(field, n):
    from loxpairs.classify import _linearization
    from loxpairs.generate import random_loxodromic
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(5)
    targets = [random_loxodromic(space, rng) for _ in range(2)]
    m = space.dim
    units = (1, 1j) if field == "complex" else (1, 1j, "j", "k")
    directions = []
    for u in units:
        for i in range(m):
            for k in range(m):
                D = QArray.zeros((m, m))
                if u == "j":
                    D.b[i, k] = 1.0
                elif u == "k":
                    D.b[i, k] = 1j
                else:
                    D.a[i, k] = u
                directions.append(D)
    expect = np.concatenate([
        np.stack([_flat_one(D @ Xp - Xp @ D, len(units)) for D in directions],
                 axis=1)
        for Xp in targets])
    got = _linearization(space, targets)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-12


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_linearization_has_no_zero_row(field):
    # one row per real coordinate the field has; over the complex numbers
    # there is no b-block to leave identically zero
    from loxpairs.classify import _linearization
    from loxpairs.generate import random_loxodromic
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(5)
    lin = _linearization(space, [random_loxodromic(space, rng)
                                 for _ in range(2)])
    assert lin.shape == (2 * space.units * space.dim ** 2,
                         space.units * space.dim ** 2)
    assert np.all(np.max(np.abs(lin), axis=1) > 0)


def test_conjugacy_test_forms_one_gram_per_tuple(space, rng, monkeypatch):
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    calls = []
    gram = HermitianSpace.gram

    def counting(self, vectors):
        calls.append(len(vectors))
        return gram(self, vectors)

    monkeypatch.setattr(HermitianSpace, "gram", counting)
    res = conjugacy_test(space, A, B, conjugate_by(C, A), conjugate_by(C, B))
    assert res.conjugate
    # one product of both frames (2n + 2 vectors) for each of the two
    # genericity reports and the two lift normalizations, then one of
    # each associated tuple of 2n lifts
    assert calls == [2 * space.n + 2] * 4 + [2 * space.n] * 2


def test_conjugacy_test_pairs_only_through_gram(space, rng, monkeypatch):
    # eigen_frame normalizes its lifts by single pairings; every later
    # pairing of a conjugate conjugacy_test is a Gram entry
    import loxpairs.classify as classify
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    depth, outside = [0], []
    frame, inner = classify.eigen_frame, HermitianSpace.inner

    def framing(*args):
        depth[0] += 1
        try:
            return frame(*args)
        finally:
            depth[0] -= 1

    def guarded(self, z, w):
        if not depth[0]:
            outside.append(1)
        return inner(self, z, w)

    monkeypatch.setattr(classify, "eigen_frame", framing)
    monkeypatch.setattr(HermitianSpace, "inner", guarded)
    res = conjugacy_test(space, A, B, conjugate_by(C, A), conjugate_by(C, B))
    assert res.conjugate
    assert not outside


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 5])
def test_lstsq_solver_matches_lstsq(field, n):
    from loxpairs.classify import _linearization, _lstsq_solver
    from loxpairs.generate import random_loxodromic
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(7)
    lin = _linearization(space, [random_loxodromic(space, rng)
                                 for _ in range(2)])
    solve = _lstsq_solver(lin)
    # near a conjugator the residual E is D X' - X' D to first order, so
    # the right-hand sides lie in the range of the linearization
    for _ in range(3):
        b = lin @ rng.standard_normal(lin.shape[1])
        x = solve(b)
        ref = np.linalg.lstsq(lin, b, rcond=None)[0]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_isometry_algebra_basis(field, n):
    from loxpairs.classify import _isometry_algebra_basis
    space = HermitianSpace(n, field)
    H = QArray(space.H)
    basis = _isometry_algebra_basis(space)
    assert len(basis) == space.group_dim
    for X in basis:
        assert (X.adjoint() @ H + H @ X).max_abs() <= 1e-12
        if field == "complex":
            assert abs(np.trace(X.a).imag) <= 1e-12

