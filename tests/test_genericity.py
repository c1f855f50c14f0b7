import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.genericity import (MEMBERSHIP_TOL, _max_matching,
                                 _multiple_matchings, genericity_report,
                                 on_line_boundary)
from loxpairs.hermitian import HermitianSpace
from loxpairs.spectral import eigen_frame


def canonical_flags(frame):
    """Flags (a_A, L_A, W_j) of a frame, as (point, line, polar)."""
    a, r = frame.attracting, frame.repelling
    return [SimpleNamespace(point=a, line=(a, r), polar=x)
            for x in frame.positives]


def _line_meets_polar_boundary(space, line, x, tol):
    """Per-pair reference: does the boundary circle of span(c1, c2) meet
    the boundary of the hyperplane polar to x?  Null vectors of the line
    are c1*alpha + c2*beta; with s = <c1, x>, u = <c2, x>, one lies in
    x-perp iff Re(conj(s) u) = 0 (or s, u degenerate)."""
    c1, c2 = line
    s = space.inner(c1, x)
    u = space.inner(c2, x)
    scale1 = c1.norm() * x.norm()
    scale2 = c2.norm() * x.norm()
    if abs(s) <= tol * scale1 or abs(u) <= tol * scale2:
        return True
    return abs((s.conjugate() * u).w) <= tol * scale1 * scale2


def _brute_flag_pairs(space, fa, fb, tol=MEMBERSHIP_TOL):
    """The four generic-pair conditions evaluated on every flag pair."""
    fl_a, fl_b = canonical_flags(fa), canonical_flags(fb)
    M = np.zeros((len(fl_a), len(fl_b)), dtype=bool)
    for i, f in enumerate(fl_a):
        for j, g in enumerate(fl_b):
            M[i, j] = not (
                on_line_boundary(space, f.point, g.line, tol)
                or on_line_boundary(space, g.point, f.line, tol)
                or _line_meets_polar_boundary(space, f.line, g.polar, tol)
                or _line_meets_polar_boundary(space, g.line, f.polar, tol))
    return M


def _polar_off(space, frame, other, k, rng):
    """frame with positive k replaced by a vector H-orthogonal to
    other's attracting lift, so that other's line meets its polar's
    boundary."""
    a, r = other.attracting, other.repelling
    v = space._random_qarray(rng, space.dim)
    lam = (space.inner(a, v) * space.inner(a, r).inverse()).conjugate()
    x = v - r.rmul(lam)
    pos = list(frame.positives)
    pos[k] = x.scale(1.0 / x.norm())
    return dataclasses.replace(frame, positives=pos)


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_pair_matrix_matches_brute_force(n, field, rng):
    space = HermitianSpace(n, field)
    A, B = generate_pair(space, seed=n, mode="weak")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    cases = [(fa, fb), (fa, eigen_frame(space, A @ A)),
             (fa, _polar_off(space, fb, fa, 0, rng)),
             (_polar_off(space, fa, fb, n - 2, rng), fb)]
    Ms = [genericity_report(space, f, g).flag_pair_matrix for f, g in cases]
    for M, (f, g) in zip(Ms, cases):
        assert np.array_equal(M, _brute_flag_pairs(space, f, g))
    _, power, col_off, row_off = Ms
    assert not power.any()
    assert not col_off[:, 0].any() and col_off[:, 1:].any()
    assert not row_off[-1].any() and row_off[:-1].any()


def test_generated_weak_pair_report(space):
    A, B = generate_pair(space, seed=11, mode="weak")
    rep = genericity_report(space, eigen_frame(space, A),
                            eigen_frame(space, B))
    assert rep.weakly_nonsingular
    assert len(rep.matching_A) == space.n - 2
    assert len(rep.matching_B) == space.n - 2
    assert rep.omitted_A is not None and rep.omitted_B is not None


def test_generated_strong_pair_report(space):
    A, B = generate_pair(space, seed=11, mode="strong")
    rep = genericity_report(space, eigen_frame(space, A),
                            eigen_frame(space, B))
    assert rep.nonsingular
    assert not rep.failing_conditions


@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_report_at_n2(field):
    # one flag per frame: the only (n - 2)-matching is the empty one
    space = HermitianSpace(2, field)
    A, B = generate_pair(space, seed=1, mode="weak")
    rep = genericity_report(space, eigen_frame(space, A),
                            eigen_frame(space, B))
    assert rep.flag_pair_matrix.tolist() == [[True]]
    assert rep.matching_A == rep.matching_B == []
    assert rep.omitted_A == rep.omitted_B == 0
    assert not rep.multiple_matchings


def test_power_pair_shares_fixed_points(qspace, rng):
    # (A, A^2) has common fixed points, hence fails genericity outright
    A = random_loxodromic(qspace, rng)
    fa = eigen_frame(qspace, A)
    fb = eigen_frame(qspace, A @ A)
    rep = genericity_report(qspace, fa, fb)
    assert not rep.weakly_nonsingular
    assert rep.failing_conditions


def test_canonical_flags(qframes):
    fa, _ = qframes
    flags = canonical_flags(fa)
    assert len(flags) == len(fa.positives)
    for fl in flags:
        assert (fl.point - fa.attracting).max_abs() == 0
        assert on_line_boundary(fa.space, fa.repelling, fl.line)


def test_flag_pair_matrix_shape(qspace, qframes):
    fa, fb = qframes
    rep = genericity_report(qspace, fa, fb)
    m = qspace.n - 1
    assert rep.flag_pair_matrix.shape == (m, m)


def _multiple_by_enumeration(M):
    """Reference: count the matchings of size order - 1 over all
    permutations; m of them come from each permutation M holds entirely
    and one from each that misses exactly one pair."""
    m = M.shape[0]
    perms = np.array(list(itertools.permutations(range(m))))
    missing = np.count_nonzero(~M[np.arange(m), perms], axis=1)
    return m * np.count_nonzero(missing == 0) \
        + np.count_nonzero(missing == 1) > 1


def _multiple(M):
    k = M.shape[0] - 1
    return _multiple_matchings(M, _max_matching(M)[0][:k], k)


def test_multiple_matchings_match_enumeration():
    mats = [np.array(bits, dtype=bool).reshape(m, m)
            for m in (1, 2, 3)
            for bits in itertools.product((False, True), repeat=m * m)]
    rng = np.random.default_rng(0)
    mats += list(rng.random((2000, 4, 4)) < rng.random((2000, 1, 1)))
    for M in mats:
        assert _multiple(M) == _multiple_by_enumeration(M), M


def test_multiple_matchings_at_large_order():
    # at most k re-matchings, so a large order is cheap
    m = 40
    assert _multiple(np.ones((m, m), dtype=bool))
    assert _multiple(np.eye(m, dtype=bool))
    assert not _multiple(np.diag(np.arange(m) < m - 1))
