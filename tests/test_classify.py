import functools
import itertools

import numpy as np
import pytest

from conftest import maps_projectively, null_lift
from loxpairs.classify import (_verified_congruence,
                               boundary_quadruple_congruence,
                               congruence_from_tuples, conjugacy_test,
                               invariant_map_rank)
from loxpairs.errors import (DegenerateInputError, LoxpairsError,
                             NormalizationImpossible, NotNonsingular,
                             VerificationFailed, WrongDimension)
from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by, quaternionic_rank


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


def test_complex_strong_mode_compares_every_invariant(cspace, rng,
                                                     monkeypatch):
    # X3 moved on the second tuple of a truly conjugate pair: strong
    # mode compares the whole tuple, as weak mode does, and rejects
    import dataclasses
    from loxpairs import classify
    A, B = generate_pair(cspace, seed=33, mode="strong")
    C = cspace.random_isometry(rng)
    mats = (A, B, conjugate_by(C, A), conjugate_by(C, B))
    assert conjugacy_test(cspace, *mats, mode="strong").conjugate
    invariants = classify.pair_invariants

    def moved(*args):
        i1, i2 = invariants(*args)
        a = i2.entries.a.copy()
        a[i2.layout()["X3"]] += 1e-3
        return [i1, dataclasses.replace(
            i2, entries=QArray(a, i2.entries.b.copy()))]

    monkeypatch.setattr(classify, "pair_invariants", moved)
    for mode in ("strong", "weak"):
        res = conjugacy_test(cspace, *mats, mode=mode)
        assert not res.conjugate and res.stage == "tuple"


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


def _fix_e3(X: QArray, phi: float) -> QArray:
    """An isometry X of F^{2,1} acting on coordinates 1, 2, 4 of F^{3,1},
    with e_3 -> e^(i phi) e_3."""
    a, b = (np.insert(np.insert(c, 2, 0, axis=0), 2, 0, axis=1)
            for c in (X.a, X.b))
    a[2, 2] = np.exp(1j * phi)
    return QArray(a, b)


def test_strong_mode_requires_nonsingular(space):
    # two loxodromics preserving the F-hyperbolic plane e_3-perp, with
    # the shared positive eigenvector e_3: weakly non-singular, but the
    # four fixed points span only three dimensions
    from loxpairs.genericity import genericity_report
    from loxpairs.spectral import eigen_frame
    A, B = (_fix_e3(X, 1.7) for X in generate_pair(
        HermitianSpace(2, space.field), seed=3, mode="weak"))
    rep, = genericity_report(space, [eigen_frame(space, A)],
                             [eigen_frame(space, B)])
    assert rep.weakly_nonsingular and not rep.nonsingular
    assert rep.failing_conditions == ["fixed-points-in-hyperplane-boundary"]
    with pytest.raises(NotNonsingular):
        conjugacy_test(space, A, B, A, B, mode="strong")


def test_weak_mode_decides_pair_preserving_a_plane(space, rng):
    # every lift of the pair of test_strong_mode_requires_nonsingular
    # lies in e_3-perp; the omitted positive e_3 completes the basis
    A, B = (_fix_e3(X, 1.7) for X in generate_pair(
        HermitianSpace(2, space.field), seed=3, mode="weak"))
    images = [(A, B)]
    for _ in range(3):
        C = space.random_isometry(rng)
        images.append((conjugate_by(C, A), conjugate_by(C, B)))
    for A2, B2 in images:
        res = conjugacy_test(space, A, B, A2, B2)
        assert res.conjugate and res.stage == "verified"
        D = res.conjugator
        assert (conjugate_by(D, A) - A2).max_abs() \
            <= 1e-7 * (1.0 + A2.max_abs())
        assert (conjugate_by(D, B) - B2).max_abs() \
            <= 1e-7 * (1.0 + B2.max_abs())


def test_quadruple_congruence(space, rng):
    # n = 2 too: four lifts in three dimensions, so the basis is three
    # spanning lifts, and the fourth is checked
    for sp in (space, HermitianSpace(2, space.field)):
        for _ in range(5):
            zs = [null_lift(sp, rng) for _ in range(4)]
            if quaternionic_rank(QArray.from_columns(zs)) < min(4, sp.dim):
                continue
            U = sp.random_isometry(rng)
            ws = [U @ z for z in zs]
            h = boundary_quadruple_congruence(sp, zs, ws)
            assert h is not None and maps_projectively(sp, h, zs, ws)


def test_quadruple_congruence_rescaled_lifts(qspace, rng):
    zs = [null_lift(qspace, rng) for _ in range(4)]
    U = qspace.random_isometry(rng)
    ws = []
    for z in zs:
        u = QArray.from_components(rng.standard_normal(4))
        ws.append((U @ z) * u.scale(1.0 / u.moduli()))
    h = boundary_quadruple_congruence(qspace, zs, ws)
    assert h is not None and maps_projectively(qspace, h, zs, ws)


def test_quadruple_congruence_rejects_perturbed(space, rng):
    for sp in (space, HermitianSpace(2, space.field)):
        zs = [null_lift(sp, rng) for _ in range(4)]
        U = sp.random_isometry(rng)
        ws = [U @ z for z in zs]
        bad = null_lift(sp, rng)
        assert boundary_quadruple_congruence(sp, zs, ws[:3] + [bad]) is None


def test_quadruple_congruence_higher_dimension(rng):
    # n = 4 exercises the orthogonal-complement extension of the map
    space = HermitianSpace(4, "quaternion")
    zs = [null_lift(space, rng) for _ in range(4)]
    U = space.random_isometry(rng)
    ws = [U @ z for z in zs]
    h = boundary_quadruple_congruence(space, zs, ws)
    assert h is not None and maps_projectively(space, h, zs, ws)


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


def test_quadruple_on_one_complex_line_raises(space):
    # four distinct null points (1, 0, 0, i s) of the complex line
    # spanned by e1 and e4 normalize, but span only rank 2
    zs = [_vec([1, 0, 0, 1j * s]) for s in (0.5, 1.0, 2.0, -1.5)]
    with pytest.raises(DegenerateInputError,
                       match="does not span a rank-4 subspace"):
        boundary_quadruple_congruence(space, zs, zs)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_quadruple_in_the_plane_with_three_points_on_a_chain(field, rng):
    # (1, 0, i s) lie on the chain of e1 and e3, so the first three lifts
    # span only rank 2; the fourth, off the chain, completes the basis
    space = HermitianSpace(2, field)
    zs = [_vec([1, 0, 1j * s]) for s in (0.5, 2.0, -1.5)] \
        + [null_lift(space, rng)]
    assert quaternionic_rank(QArray.from_columns(zs[:3])) == 2
    U = space.random_isometry(rng)
    ws = [U @ z for z in zs]
    h = boundary_quadruple_congruence(space, zs, ws)
    assert h is not None and maps_projectively(space, h, zs, ws)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_quadruple_bases_come_from_one_stacked_call(n, field, rng,
                                                    monkeypatch):
    from loxpairs import classify
    space = HermitianSpace(n, field)
    shapes, bases = [], classify._quadruple_bases
    monkeypatch.setattr(classify, "_quadruple_bases", lambda space, S: (
        shapes.append(S.shape), bases(space, S))[1])
    zs = [null_lift(space, rng) for _ in range(4)]
    U = space.random_isometry(rng)
    assert boundary_quadruple_congruence(space, zs, [U @ z for z in zs]) \
        is not None
    assert shapes == [(2, space.dim, 4)]


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n, slot", [(4, 1), (5, 3)])
def test_quadruple_through_e1_skips_a_vanishing_projector_column(
        n, slot, field, rng):
    # e1 lies in the span of the first quadruple, so the first column of
    # its complement projector vanishes, and its completion goes on to
    # the next column
    space = HermitianSpace(n, field)
    zs = [null_lift(space, rng) for _ in range(4)]
    zs[slot] = _vec(np.eye(space.dim)[0])
    U = space.random_isometry(rng)
    ws = [U @ z for z in zs]
    h = boundary_quadruple_congruence(space, zs, ws)
    assert h is not None and maps_projectively(space, h, zs, ws)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [4, 5])
def test_quadruple_congruence_across_a_coordinate_swap(n, field, rng):
    # the first quadruple lies in a coordinate sub-ball, its complement
    # the first n - 3 middle axes; a swap of middle coordinates, an
    # isometry, moves the second's complement to other axes, so the two
    # completions take different projector columns
    space = HermitianSpace(n, field)
    off = list(range(1, n - 2))
    keep = [0] + list(range(n - 2, n + 1))
    zs = []
    for _ in range(4):
        small = null_lift(HermitianSpace(3, field), rng)
        a, b = np.zeros((2, space.dim), dtype=complex)
        a[keep], b[keep] = small.a, small.b
        zs.append(QArray(a, b))
    swap = [i + n - 3 for i in off]
    perm = np.arange(space.dim)
    perm[off + swap] = swap + off
    U = QArray(np.eye(space.dim)[perm].astype(complex))
    ws = [U @ z for z in zs]
    h = boundary_quadruple_congruence(space, zs, ws)
    assert h is not None and maps_projectively(space, h, zs, ws)


@pytest.mark.parametrize("wrong", ["image", "pair"])
def test_verified_congruence_rejects_one_wrong_image(space, rng, wrong):
    U = space.random_isometry(rng)
    basis = QArray.eye(space.dim)
    images = U @ basis
    C = _verified_congruence(space, basis, images, basis, images, 1e-8)
    assert (C - U).max_abs() < 1e-10
    bad = images.copy()
    bad.a[:, 1] += 0.1 * images.a[:, 2]
    bad.b[:, 1] += 0.1 * images.b[:, 2]
    if wrong == "image":
        args = (bad, basis, images)
    else:
        args = (images, basis, bad)
    with pytest.raises(VerificationFailed):
        _verified_congruence(space, basis, *args, 1e-8)


def test_congruence_from_tuples_identity(qspace):
    from loxpairs.genericity import genericity_report
    from loxpairs.gram import normalize_lifts
    from loxpairs.spectral import eigen_frame
    A, B = generate_pair(qspace, seed=12, mode="strong")
    fa, fb = eigen_frame(qspace, A), eigen_frame(qspace, B)
    t, = normalize_lifts(qspace, genericity_report(qspace, [fa], [fb]))
    C = congruence_from_tuples(t, t, QArray(1.0))
    assert C is not None
    assert (C - QArray.eye(qspace.dim)).max_abs() < 1e-7


@pytest.mark.parametrize("k", [0, 1])
def test_congruence_from_tuples_checks_each_omitted_lift(qspace, k):
    # one stacked rank test covers both omitted positives: moving either
    # one of the second tuple off its line fails the check
    from dataclasses import replace

    from loxpairs.genericity import genericity_report
    from loxpairs.gram import normalize_lifts
    from loxpairs.spectral import eigen_frame
    A, B = generate_pair(qspace, seed=12, mode="strong")
    fa, fb = eigen_frame(qspace, A), eigen_frame(qspace, B)
    t, = normalize_lifts(qspace, genericity_report(qspace, [fa], [fb]))
    P = t.P.copy()
    col = 2 * qspace.n + k
    P.a[:, col], P.b[:, col] = P.a[:, col] + P.a[:, 0], P.b[:, col] + P.b[:, 0]
    with pytest.raises(VerificationFailed, match="omitted lift"):
        congruence_from_tuples(t, replace(t, P=P), QArray(1.0))


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
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_linearization_matches_per_direction(field, n):
    from loxpairs.classify import _linearization
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(5)
    targets = [random_loxodromic(space, rng)[0] for _ in range(2)]
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
    # the closed form does the per-direction arithmetic, to the last bit
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_linearization_has_no_zero_row(field):
    # one row per real coordinate the field has; over the complex numbers
    # there is no b-block to leave identically zero
    from loxpairs.classify import _linearization
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(5)
    lin = _linearization(space, [random_loxodromic(space, rng)[0]
                                 for _ in range(2)])
    assert lin.shape == (2 * space.units * space.dim ** 2,
                         space.units * space.dim ** 2)
    assert np.all(np.max(np.abs(lin), axis=1) > 0)


def test_conjugacy_test_forms_one_gram_per_pair(space, rng, monkeypatch):
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    calls = []
    gram = HermitianSpace.gram

    def counting(self, V):
        calls.append(V.shape)
        return gram(self, V)

    monkeypatch.setattr(HermitianSpace, "gram", counting)
    res = conjugacy_test(space, A, B, conjugate_by(C, A), conjugate_by(C, B))
    assert res.conjugate
    # one product over the stack of both pairs of frames (2n + 2 vectors
    # each); the genericity reports, the lift normalizations and the
    # associated tuples read every pairing from it
    assert calls == [(2, space.dim, 2 * space.n + 2)]


def test_conjugacy_test_solves_one_sp1_gauge(qspace, rng, monkeypatch):
    # the unit that matches the invariants drives the reconstruction; no
    # second alignment runs on the Gram entries
    import loxpairs.hermitian as hermitian
    A, B = generate_pair(qspace, seed=31, mode="strong")
    C = qspace.random_isometry(rng)
    calls = []
    align = hermitian.align_sp1

    def counting(*args, **kwargs):
        calls.append(1)
        return align(*args, **kwargs)

    monkeypatch.setattr(hermitian, "align_sp1", counting)
    res = conjugacy_test(qspace, A, B, conjugate_by(C, A),
                         conjugate_by(C, B))
    assert res.conjugate and res.stage == "verified"
    assert len(calls) == 1


def test_conjugacy_test_ill_conditioned_quaternion_conjugate(qspace):
    # conjugate by Q^2: under the invariants' unit the normalized Gram
    # entries of the two tuples agree to 5e-8 only, outside a 1e-8 gauge
    # on the Gram entries, which rejected this pair at "tuple"
    A, B = generate_pair(qspace, seed=271)
    Q = qspace.random_isometry(np.random.default_rng(271))
    C = Q @ Q
    A2, B2 = conjugate_by(C, A), conjugate_by(C, B)
    res = conjugacy_test(qspace, A, B, A2, B2)
    assert res.conjugate and res.stage == "verified"
    D = res.conjugator
    resid = max((conjugate_by(D, A) - A2).max_abs(),
                (conjugate_by(D, B) - B2).max_abs())
    assert resid == res.residual
    assert resid <= 1e-7 * (1.0 + max(A2.max_abs(), B2.max_abs()))


def test_conjugacy_test_forms_one_frame_gram_per_pair(space, rng,
                                                      monkeypatch):
    import loxpairs.genericity as genericity
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    A2, B2 = conjugate_by(C, A), conjugate_by(C, B)
    calls = []
    frame_gram = genericity._frame_gram

    def counting(space, fa, fb):
        calls.append([(f.rebuild(), g.rebuild()) for f, g in zip(fa, fb)])
        return frame_gram(space, fa, fb)

    monkeypatch.setattr(genericity, "_frame_gram", counting)
    assert conjugacy_test(space, A, B, A2, B2).conjugate
    # one product over the stack of both pairs, in their order
    assert len(calls) == 1 and len(calls[0]) == 2
    for (Ar, Br), (X, Y) in zip(calls[0], ((A, B), (A2, B2))):
        assert (Ar - X).max_abs() <= 1e-8 * (1 + X.max_abs())
        assert (Br - Y).max_abs() <= 1e-8 * (1 + Y.max_abs())


def push_polish(monkeypatch, push):
    """Patch classify._refine_conjugator to return the polished C moved
    to C @ push, with the residuals of that C."""
    from loxpairs import classify
    real = classify._refine_conjugator

    def pushed(space, C, pairs):
        C = real(space, C, pairs)[0] @ push
        Cinv = C.inverse()
        return C, [Xp - C @ X @ Cinv for X, Xp in pairs]

    monkeypatch.setattr(classify, "_refine_conjugator", pushed)


def test_conjugacy_test_rejects_a_polish_off_the_points(qspace, rng,
                                                       monkeypatch):
    # over the complex numbers every point is (1 : 0), so only the
    # quaternions can miss them
    A, B = generate_pair(qspace, seed=31, mode="strong")
    C, R = qspace.random_isometry(rng), qspace.random_isometry(rng)
    push_polish(monkeypatch, R)
    res = conjugacy_test(qspace, A, B, conjugate_by(C, A),
                         conjugate_by(C, B))
    assert not res.conjugate and res.stage == "projective-points"
    assert res.conjugator is None and np.isnan(res.residual)


def test_conjugacy_test_compares_points_over_the_quaternions(space, rng,
                                                            monkeypatch):
    # over the complex numbers every point is (1 : 0), so a conjugate
    # pair is verified without forming the points of C F
    import loxpairs.classify as classify
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    formed, real = [], classify.projective_points

    def points(V):
        formed.append(V.shape)
        return real(V)

    monkeypatch.setattr(classify, "projective_points", points)
    res = conjugacy_test(space, A, B, conjugate_by(C, A), conjugate_by(C, B))
    assert res.conjugate and res.stage == "verified"
    assert bool(formed) == (space.field == "quaternion")


def test_conjugacy_test_raises_on_a_nan_conjugator(cspace, rng,
                                                   monkeypatch):
    # with no point comparison over the complex numbers, the residual
    # gate is the one that a NaN polish meets, and NaN fails it
    A, B = generate_pair(cspace, seed=31, mode="strong")
    C = cspace.random_isometry(rng)
    push_polish(monkeypatch, QArray(np.full((4, 4), np.nan)))
    with pytest.raises(VerificationFailed, match="conjugation residual nan"):
        conjugacy_test(cspace, A, B, conjugate_by(C, A), conjugate_by(C, B))


def test_conjugacy_test_rejects_a_bad_tol_or_mode(qspace, rng):
    # unchecked, a tol that is not > 0 would call this conjugate pair
    # "not conjugate", and a misspelt mode would run weak mode
    A, B = generate_pair(qspace, seed=31, mode="strong")
    C = qspace.random_isometry(rng)
    mats = (A, B, conjugate_by(C, A), conjugate_by(C, B))
    assert conjugacy_test(qspace, *mats).conjugate
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(LoxpairsError, match="tol must be positive"):
            conjugacy_test(qspace, *mats, tol=tol)
    for mode in ("Strong", "", None):
        with pytest.raises(LoxpairsError, match="unknown mode"):
            conjugacy_test(qspace, *mats, mode=mode)


def test_conjugacy_test_raises_past_the_residual_gate(space, rng,
                                                      monkeypatch):
    # a 1e-6 push keeps every projective point within its gate but not
    # the conjugation residual: matched invariants with a failed direct
    # check raise rather than pass
    A, B = generate_pair(space, seed=31, mode="strong")
    C = space.random_isometry(rng)
    push_polish(monkeypatch, QArray.eye(space.dim)
                + QArray(1e-6 * np.eye(space.dim)[::-1]))
    with pytest.raises(VerificationFailed, match="conjugation residual"):
        conjugacy_test(space, A, B, conjugate_by(C, A), conjugate_by(C, B))


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


def test_pair_stage_scalars_are_zero_dim_qarrays(rng):
    # one quaternion type: every function that returns a single
    # quaternion returns a 0-d QArray, loxpairs.quat has no class, and
    # the pair stage decides on these scalars for n = 3..5
    import inspect

    import loxpairs.quat as quat
    from conftest import pair_stage
    from loxpairs.hermitian import gauge
    from loxpairs.invariants import (cross_ratio, sp1_orbit_equal,
                                     triple_product)
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import (identity_params, pants_groups,
                                    tilde_invariants, twist_bend_element)
    assert not [name for name, obj in vars(quat).items()
                if inspect.isclass(obj) and obj.__module__ == quat.__name__]
    for n in (3, 4, 5):
        for field in ("complex", "quaternion"):
            space = HermitianSpace(n, field)
            A, B = generate_pair(space, seed=31, mode="strong")
            C, Q = space.random_isometry(rng), space.random_isometry(rng)
            for mode in ("weak", "strong"):
                res = conjugacy_test(space, A, B, conjugate_by(C, A),
                                     conjugate_by(C, B), mode=mode)
                assert res.conjugate
                # same spectra, B moved alone: rejected by the invariants
                res = conjugacy_test(space, A, B, conjugate_by(C, A),
                                     conjugate_by(Q, B), mode=mode)
                assert not res.conjugate and res.stage == "tuple"
            zs = [null_lift(space, rng) for _ in range(4)]
            ws = [C @ z for z in zs]
            assert boundary_quadruple_congruence(space, zs, ws) is not None

            fa, fb = eigen_frame(space, A), eigen_frame(space, B)
            _, _, t = pair_stage(space, fa, fb)
            e = t.entries
            scalars = [space.inner(zs[0], zs[1]),
                       gauge(field, e, e, 1e-10), quat.align_sp1(e, e),
                       sp1_orbit_equal(t, t), cross_ratio(space, *zs),
                       triple_product(space, *zs[:3])]
            if n == 3:
                fp = pants_groups(space, [(A, B)])[0].frames
                K = twist_bend_element(identity_params(fp[0]), fp[0])
                scalars += tilde_invariants(space, K, *fp)[:3]
            for q in scalars:
                assert isinstance(q, QArray) and q.shape == ()


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 5])
def test_lstsq_solver_matches_lstsq(field, n):
    from loxpairs.classify import _linearization, _lstsq_solver
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(7)
    lin = _linearization(space, [random_loxodromic(space, rng)[0]
                                 for _ in range(2)])
    solve = _lstsq_solver(space, lin)
    # near a conjugator the residual E is D X' - X' D to first order, so
    # the right-hand sides lie in the range of the linearization
    for _ in range(3):
        b = lin @ rng.standard_normal(lin.shape[1])
        x = solve(b)
        ref = np.linalg.lstsq(lin, b, rcond=None)[0]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_linearization_kernel_is_the_centre(field, n):
    # the premise of the QR solve: over a generic pair the only kernel of
    # D -> [D, X'] is the centre, and the solution is orthogonal to it
    from loxpairs.classify import _delta, _linearization, _lstsq_solver
    space = HermitianSpace(n, field)
    A, B = generate_pair(space, seed=n)
    lin = _linearization(space, [A, B])
    _, sv, Vt = np.linalg.svd(lin)
    null = Vt[np.sum(sv > 1e-10 * sv[0]):]
    centre = (1.0, 1j) if field == "complex" else (1.0,)
    assert len(null) == len(centre)
    # real multiples of I, and of i I over the complex numbers
    units = 2 if field == "complex" else 4
    Qc, _ = np.linalg.qr(np.stack(
        [_flat_one(QArray(u * np.eye(space.dim)), units) for u in centre],
        axis=1))
    assert np.linalg.norm(null - null @ Qc @ Qc.T) <= 1e-10
    rng = np.random.default_rng(3)
    x = _lstsq_solver(space, lin)(lin @ rng.standard_normal(lin.shape[1]))
    tr = np.trace(_delta(space, x).a)
    assert abs(tr.real) <= 1e-12 * np.linalg.norm(x)
    if field == "complex":
        assert abs(tr.imag) <= 1e-12 * np.linalg.norm(x)


def test_refine_conjugator_polishes_without_an_svd(space, rng, monkeypatch):
    from loxpairs.classify import _refine_conjugator
    A, B = generate_pair(space, seed=2)
    Q = space.random_isometry(rng)
    pairs = [(A, conjugate_by(Q, A)), (B, conjugate_by(Q, B))]
    C0 = Q @ (QArray.eye(space.dim) + QArray(1e-6 * np.eye(space.dim)[::-1]))

    def no_svd(*args, **kwargs):
        raise AssertionError("the polish ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    C, E = _refine_conjugator(space, C0, pairs)
    assert max(e.max_abs() for e in E) <= 1e-10
    Cinv = C.inverse()
    for e, (X, Xp) in zip(E, pairs):
        assert (e - (Xp - C @ X @ Cinv)).max_abs() == 0.0


def _counting_solver(monkeypatch):
    """Patch classify._lstsq_solver to log each factorization and each
    solve it makes."""
    from loxpairs import classify
    log, real = [], classify._lstsq_solver

    def factor(space, M):
        log.append("factor")
        solve = real(space, M)

        def counted(b):
            log.append("solve")
            return solve(b)
        return counted

    monkeypatch.setattr(classify, "_lstsq_solver", factor)
    return log


def test_refine_conjugator_at_its_rounding_floor_runs_no_sweep(space, rng,
                                                              monkeypatch):
    from loxpairs.classify import REFINE_FLOOR, _refine_conjugator
    A, B = generate_pair(space, seed=2)
    Q = space.random_isometry(rng)
    pairs = [(A, conjugate_by(Q, A)), (B, conjugate_by(Q, B))]
    C0 = Q @ (QArray.eye(space.dim) + QArray(1e-6 * np.eye(space.dim)[::-1]))
    floor = REFINE_FLOOR * np.finfo(float).eps \
        * (1.0 + max(Xp.max_abs() for _, Xp in pairs))
    log = _counting_solver(monkeypatch)
    C1, E1 = _refine_conjugator(space, C0, pairs)
    # the polish reaches the floor and stops there: no sweep is rejected
    assert max(e.max_abs() for e in E1) <= floor
    assert log[0] == "factor" and 1 <= log.count("solve") < 3
    del log[:]
    C2, E2 = _refine_conjugator(space, C1, pairs)
    assert log == [] and C2 is C1
    assert all((e - e1).max_abs() == 0.0 for e, e1 in zip(E2, E1))


def test_refine_conjugator_keeps_no_nan_sweep(space, rng, monkeypatch):
    # a sweep whose residual is NaN does not lower it: the polish keeps
    # the C it had, so no NaN conjugator reaches the verdict
    from loxpairs import classify
    A, B = generate_pair(space, seed=2)
    Q = space.random_isometry(rng)
    pairs = [(A, conjugate_by(Q, A)), (B, conjugate_by(Q, B))]
    C0 = Q @ (QArray.eye(space.dim) + QArray(1e-6 * np.eye(space.dim)[::-1]))
    monkeypatch.setattr(classify, "_lstsq_solver",
                        lambda space, M: lambda b: np.full(M.shape[1],
                                                           np.nan))
    C, E = classify._refine_conjugator(space, C0, pairs)
    assert C is C0 and all(np.isfinite(e.max_abs()) for e in E)


def test_refine_conjugator_leaves_a_larger_centralizer_unpolished(space,
                                                                  rng):
    # both targets share one diagonal X', so every diagonal D commutes
    # with them: the linearization has more kernel than the centre
    import warnings
    from loxpairs.classify import (_linearization, _lstsq_solver,
                                   _refine_conjugator)
    Xp = QArray.diag(np.arange(1, space.dim + 1) * (1.0 + 0.5j))
    assert _lstsq_solver(space, _linearization(space, [Xp, Xp])) is None
    C = space.random_isometry(rng)
    pairs = [(random_loxodromic(space, rng)[0], Xp),
             (random_loxodromic(space, rng)[0], Xp)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C2, E = _refine_conjugator(space, C, pairs)
    assert C2 is C
    Cinv = C.inverse()
    for e, (X, Xp_) in zip(E, pairs):
        assert (e - (Xp_ - C @ X @ Cinv)).max_abs() == 0.0


def _greedy_subset(P, size):
    sel = []
    for i in range(P.shape[1]):
        if len(sel) == size:
            break
        if quaternionic_rank(P.pick(slice(None), sel + [i])) > len(sel):
            sel.append(i)
    return sel if len(sel) == size else None


def _tuple_sources(space, seed):
    from loxpairs.genericity import genericity_report
    from loxpairs.gram import normalize_lifts
    from loxpairs.spectral import eigen_frame
    fa, fb = eigen_frame(space, QArray.stack(generate_pair(space, seed)))
    return normalize_lifts(space, genericity_report(space, [fa], [fb]))[0].P

@pytest.mark.parametrize("seed", range(4))
def test_spanning_subset_matches_greedy_rank(space, seed, monkeypatch):
    from loxpairs import classify
    from loxpairs.classify import _spanning_subset
    sources = _tuple_sources(space, seed)

    def no_rank(*args, **kwargs):
        raise AssertionError("_spanning_subset called quaternionic_rank")

    monkeypatch.setattr(classify, "quaternionic_rank", no_rank)
    size = space.dim
    assert _spanning_subset(sources, size) == _greedy_subset(sources, size)
    # the second lift made dependent on the first: it is skipped
    unit = QArray(0.6 + 0.8j) if space.field == "complex" \
        else QArray.from_components([0.5, 0.5, -0.5, 0.5])
    dep, p = sources.copy(), sources.column(0) * unit
    dep.a[:, 1], dep.b[:, 1] = p.a, p.b
    got = _spanning_subset(dep, size)
    assert 1 not in got
    assert got == _greedy_subset(dep, size)


def test_spanning_subset_raises_when_lifts_do_not_span(space):
    from loxpairs.classify import _spanning_subset
    from loxpairs.errors import DegenerateInputError
    p, q = (_tuple_sources(space, 0).column(j) for j in range(2))
    # lifts from a proper subspace: the first two and their combinations
    mixed = QArray.from_columns([p, q, p + q, p - q * QArray(2.0), q])
    assert _greedy_subset(mixed, space.dim) is None
    with pytest.raises(DegenerateInputError):
        _spanning_subset(mixed, space.dim)


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



@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [4, 5])
def test_invariant_map_rank_is_the_group_dimension(n, field):
    # the invariants are local coordinates on the orbits of non-singular
    # pairs: rank dim G with a clear gap, as criterion 9 checks at n = 3
    space = HermitianSpace(n, field)
    A, B = generate_pair(space, seed=2, mode="strong")
    rank, gap = invariant_map_rank(space, A, B)
    assert rank == space.group_dim
    assert gap >= 1e3


def test_invariant_map_rank_rejects_a_step_that_moves_the_matching(
        monkeypatch):
    # the last perturbed pair reports the other positive of A as matched
    import dataclasses

    import loxpairs.classify as classify
    real = classify.genericity_report

    def moved(space, fas, fbs):
        reps = real(space, fas, fbs)
        reps[-1] = dataclasses.replace(reps[-1],
                                       matching_A=[reps[-1].omitted_A])
        return reps

    monkeypatch.setattr(classify, "genericity_report", moved)
    space = HermitianSpace(3, "complex")
    A, B = generate_pair(space, seed=2, mode="strong")
    with pytest.raises(DegenerateInputError, match="flag matching"):
        invariant_map_rank(space, A, B)


def test_pairs_of_different_sizes_raise_a_typed_error():
    s3, s4 = HermitianSpace(3, "quaternion"), HermitianSpace(4, "quaternion")
    A, B = generate_pair(s3, seed=1)
    A4, B4 = generate_pair(s4, seed=1)
    with pytest.raises(LoxpairsError, match="shapes differ"):
        conjugacy_test(s3, A, B, A4, B4)


def test_quadruple_with_a_vector_of_another_length_is_typed(space, rng):
    zs = [null_lift(space, rng) for _ in range(4)]
    ws = zs[:3] + [null_lift(HermitianSpace(4, space.field), rng)]
    with pytest.raises(LoxpairsError, match="shapes differ"):
        boundary_quadruple_congruence(space, zs, ws)


def test_quadruple_of_another_space_raises_wrong_dimension(space, rng):
    zs = [null_lift(space, rng) for _ in range(4)]
    with pytest.raises(WrongDimension):
        boundary_quadruple_congruence(HermitianSpace(4, space.field), zs, zs)


# -- verdict symmetries ----------------------------------------------------

def _outcome(space, *mats):
    """The verdict and stage of conjugacy_test on mats, or the class of
    the typed error it raises."""
    try:
        res = conjugacy_test(space, *mats)
    except LoxpairsError as exc:
        return type(exc)
    return res.conjugate, res.stage


def _plane_conjugates(field):
    """The outcomes of conjugacy_test on three n = 2 pairs and their
    conjugates, the seeds on which the quaternion gauge is ill fixed."""
    space = HermitianSpace(2, field)
    outcomes = []
    for seed in (35, 120, 166):
        A, B = generate_pair(space, seed=seed)
        C = space.random_isometry(np.random.default_rng(seed + 1000))
        outcomes.append(_outcome(space, A, B, conjugate_by(C, A),
                                 conjugate_by(C, B)))
    return outcomes


def test_complex_plane_conjugates_verify():
    assert _plane_conjugates("complex") == [(True, "verified")] * 3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "at n = 2 the only quaternion invariants are X1, X2, X3, whose "
    "imaginary parts are nearly collinear on these seeds (singular value "
    "ratio 3.8e-6 to 6.8e-6), so align_sp1 "
    "fixes mu poorly and the reconstructed map misses the isometry gate "
    "(VerificationFailed); a kernel certificate needs no mu"))
def test_quaternion_plane_conjugates_verify():
    assert _plane_conjugates("quaternion") == [(True, "verified")] * 3


def _symmetry_ops(space, rng):
    """(A, B, A2, B2) for a conjugate pair, a pair whose second element
    has another spectrum, and a pair whose elements are conjugated by
    two different isometries."""
    A, B, B3 = (random_loxodromic(space, rng)[0] for _ in range(3))
    C, D = space.random_isometry(rng), space.random_isometry(rng)
    A2 = conjugate_by(C, A)
    return [(A, B, A2, conjugate_by(C, B)), (A, B, A2, B3),
            (A, B, A2, conjugate_by(D, B))]


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_swapping_the_pairs_keeps_the_outcome(n, field):
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        for A, B, A2, B2 in _symmetry_ops(space, rng):
            assert _outcome(space, A, B, A2, B2) \
                == _outcome(space, A2, B2, A, B)


@functools.lru_cache(maxsize=None)
def _rewrite_cases(n, field):
    """The ops of the pair-swap test's seed at (n, field), four rounds of
    three, each op with the two isometries of _conjugate_each, drawn
    after its round's ops."""
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(100 + n)
    cases = []
    for _ in range(4):
        ops = _symmetry_ops(space, rng)
        cases += [(op, (space.random_isometry(rng),
                        space.random_isometry(rng))) for op in ops]
    return space, cases


def _swap_elements(space, mats, isometries):
    A, B, A2, B2 = mats
    return B, A, B2, A2


def _exact_inverses(space, mats, isometries):
    # H X* H is X^-1 for an isometry X, as H^2 = I; np.linalg.inv moves
    # each side's eigenvalue classes on its own, so its inverses need not
    # stay conjugate to working precision
    H = QArray(space.H)
    return tuple(H @ X.adjoint() @ H for X in mats)


def _conjugate_each(space, mats, isometries):
    (A, B, A2, B2), (C, D) = mats, isometries
    return (conjugate_by(C, A), conjugate_by(C, B),
            conjugate_by(D, A2), conjugate_by(D, B2))


_REWRITES = {"elements": _swap_elements, "inverses": _exact_inverses,
             "conjugates": _conjugate_each}

_NOT_WEAKLY_NONSINGULAR = (
    "a verified conjugate raises NotWeaklyNonsingular once each pair is "
    "conjugated: the genericity margins divide pairings by Euclidean "
    "norms, which conjugation does not keep")

# the cases that break the rule today, each with the defect it shows
_BROKEN = {
    ("elements", 5, "quaternion", 3):
        "a conjugate raises PatternViolation in one element order and "
        "verifies in the other: Gram entry g[6,7] is 1.6e-8 off zero, "
        "past the absolute pattern gate of 1e-8",
    ("conjugates", 4, "quaternion", 3): _NOT_WEAKLY_NONSINGULAR,
    ("conjugates", 5, "complex", 0): _NOT_WEAKLY_NONSINGULAR,
    ("conjugates", 5, "quaternion", 9): _NOT_WEAKLY_NONSINGULAR,
    ("conjugates", 5, "complex", 6):
        "a verified conjugate raises PatternViolation once each pair is "
        "conjugated: Gram entry g[6,7] is 2.8e-8 off zero, past the "
        "absolute pattern gate of 1e-8",
    ("conjugates", 5, "quaternion", 0):
        "a verified conjugate is rejected at tuple once each pair is "
        "conjugated, a false 'not conjugate': the flag matching of B "
        "differs between the sides, [0, 1, 2] against [0, 2, 3]",
}


def _rewrite_params():
    for case in itertools.product(_REWRITES, [3, 4, 5],
                                  ["complex", "quaternion"], range(12)):
        marks = ()
        if case in _BROKEN:
            marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                      reason=_BROKEN[case])
        yield pytest.param(*case, marks=marks)


@pytest.mark.parametrize("rewrite, n, field, op", _rewrite_params())
def test_a_rewrite_keeps_a_verified_verdict(rewrite, n, field, op):
    # a verdict verified on one side is verified on the other, and a
    # rejection is a rejection or a typed error there
    space, cases = _rewrite_cases(n, field)
    mats, isometries = cases[op]
    rewritten = _REWRITES[rewrite](space, mats, isometries)
    assert (_outcome(space, *mats) == (True, "verified")) \
        == (_outcome(space, *rewritten) == (True, "verified"))


def test_real_trace_gate_does_not_depend_on_the_element_order():
    # a conjugate by Q^3 whose real-trace residual, 2.1e-6 on B, lies
    # between the gates 1e-7 (1 + |tr A|) and 1e-7 (1 + |tr B|): a gate
    # scaled by the first element alone rejects one order at real-trace
    space = HermitianSpace(3, "quaternion")
    rng = np.random.default_rng(17)
    (A, _), (B, _) = (random_loxodromic(space, rng) for _ in range(2))
    Q = space.random_isometry(rng)
    C = Q @ Q @ Q
    A2, B2 = conjugate_by(C, A), conjugate_by(C, B)
    outcome = _outcome(space, A, B, A2, B2)
    assert outcome != (False, "real-trace")
    assert outcome == _outcome(space, B, A, B2, A2)
