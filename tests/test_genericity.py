import dataclasses

import numpy as np
import pytest

from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.genericity import (MEMBERSHIP_TOL, _line_meets_polar_boundary,
                                 canonical_flags, genericity_report,
                                 on_line_boundary)
from loxpairs.hermitian import HermitianSpace
from loxpairs.spectral import eigen_frame


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
