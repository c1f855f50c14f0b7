"""Flags of loxodromic elements and the generic-pair predicates that
gate the Gram-matrix normalization.

A flag of A is (a_A, L_A, W_j): the attracting fixed point, the line
through the two fixed points, and the hyperplane polar to a positive
eigenvector.  Pair genericity reduces to inner-product rank conditions
on the lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .hermitian import HermitianSpace
from .qmatrix import QArray, quaternionic_rank
from .spectral import LoxodromicFrame

MEMBERSHIP_TOL = 1e-9
RANK_TOL = 1e-8


@dataclass
class Flag:
    point: QArray            # null lift of the boundary point
    line: Tuple[QArray, QArray]   # two null lifts spanning the F-line
    polar: QArray            # positive vector polar to the hyperplane


def canonical_flags(frame: LoxodromicFrame) -> List[Flag]:
    a, r = frame.attracting, frame.repelling
    return [Flag(a, (a, r), x) for x in frame.positives]


def on_line_boundary(space: HermitianSpace, p: QArray, line,
                     tol: float = MEMBERSHIP_TOL) -> bool:
    """Projective membership of a null point in the boundary circle of
    an F-line: a rank condition on the three lifts."""
    c1, c2 = line
    return quaternionic_rank([p, c1, c2], tol=tol) <= 2


def _line_meets_polar_boundary(space: HermitianSpace, line, x: QArray,
                               tol: float) -> bool:
    """Does the boundary circle of span(c1, c2) meet the boundary of the
    hyperplane polar to x?

    Null vectors of the line are c1*alpha + c2*beta; with s = <c1, x>,
    u = <c2, x>, membership in x-perp forces alpha = -s^{-1} u beta, and
    a null solution exists iff Re(conj(s) u) = 0 (or s, u degenerate).
    """
    c1, c2 = line
    s = space.inner(c1, x)
    u = space.inner(c2, x)
    scale1 = c1.norm() * x.norm()
    scale2 = c2.norm() * x.norm()
    if abs(s) <= tol * scale1 or abs(u) <= tol * scale2:
        return True
    cross = (s.conjugate() * u).w   # Re(conj(s) u)
    return abs(cross) <= tol * scale1 * scale2


@dataclass
class PairGenericityReport:
    weakly_nonsingular: bool
    nonsingular: bool
    flag_pair_matrix: np.ndarray
    # matched positive-eigenvector indices of A and of B, length n-2,
    # plus the omitted index on each side
    matching_A: List[int] = field(default_factory=list)
    matching_B: List[int] = field(default_factory=list)
    omitted_A: Optional[int] = None
    omitted_B: Optional[int] = None
    multiple_matchings: bool = False
    failing_conditions: List[str] = field(default_factory=list)


def _common_fixed_point(space: HermitianSpace, fa: LoxodromicFrame,
                        fb: LoxodromicFrame, tol: float) -> bool:
    # two null lifts span the same boundary point iff they pair to zero
    for p in (fa.attracting, fa.repelling):
        for q in (fb.attracting, fb.repelling):
            if abs(space.inner(p, q)) <= tol * p.norm() * q.norm():
                return True
    return False


def _max_matching(M: np.ndarray):
    """Row->column assignment of a boolean matrix, as (pairs, size)."""
    if not M.any():
        return [], 0
    match = maximum_bipartite_matching(csr_matrix(M), perm_type="column")
    pairs = [(i, int(match[i])) for i in range(M.shape[0]) if match[i] >= 0]
    return pairs, len(pairs)


def genericity_report(space: HermitianSpace, fa: LoxodromicFrame,
                      fb: LoxodromicFrame,
                      tol: float = MEMBERSHIP_TOL) -> PairGenericityReport:
    n = space.n
    failing: List[str] = []
    if _common_fixed_point(space, fa, fb, tol):
        failing.append("common-fixed-point")

    # (f_i, g_j) is a generic flag pair iff neither point lies on the
    # other line and neither line meets the other polar's boundary.  All
    # flags of one frame share its point and line, so the point test is
    # one for every pair and each polar test depends on i or j alone.
    flags_a = canonical_flags(fa)
    flags_b = canonical_flags(fb)
    f0, g0 = flags_a[0], flags_b[0]
    points_ok = not (on_line_boundary(space, f0.point, g0.line, tol)
                     or on_line_boundary(space, g0.point, f0.line, tol))
    rows = [not _line_meets_polar_boundary(space, g0.line, f.polar, tol)
            for f in flags_a]
    cols = [not _line_meets_polar_boundary(space, f0.line, g.polar, tol)
            for g in flags_b]
    M = points_ok & np.outer(rows, cols)

    pairs, size = _max_matching(M)
    if size < n - 2:
        failing.append("flag-matching")
    pairs = pairs[:n - 2]
    matched_a = [p[0] for p in pairs]
    matched_b = [p[1] for p in pairs]
    omitted_a = next((i for i in range(n - 1) if i not in matched_a), None)
    omitted_b = next((j for j in range(n - 1) if j not in matched_b), None)

    multiple = False
    if size >= n - 2:
        for (i, j) in pairs:
            M2 = M.copy()
            M2[i, j] = False
            if _max_matching(M2)[1] >= n - 2:
                multiple = True
                break

    weakly = not failing
    lifts = [fa.attracting, fa.repelling, fb.attracting, fb.repelling]
    rank4 = quaternionic_rank(lifts, tol=RANK_TOL) >= 4
    if not rank4:
        failing.append("fixed-points-in-hyperplane-boundary")
    return PairGenericityReport(
        weakly_nonsingular=weakly,
        nonsingular=weakly and rank4,
        flag_pair_matrix=M,
        matching_A=matched_a,
        matching_B=matched_b,
        omitted_A=omitted_a,
        omitted_B=omitted_b,
        multiple_matchings=multiple,
        failing_conditions=failing,
    )
