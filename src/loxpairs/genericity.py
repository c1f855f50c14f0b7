"""Flags of loxodromic elements and the generic-pair predicates that
gate the Gram-matrix normalization.

A flag of A is (a_A, L_A, W_j): the attracting fixed point, the line
through the two fixed points, and the hyperplane polar to a positive
eigenvector.  Pair genericity reduces to conditions on the lifts: array
expressions over one Gram product of both frames (`_frame_gram`) for the
pairings, coordinate ranks for point membership and the rank-4 test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .hermitian import HermitianSpace
from .qmatrix import QArray, quaternionic_rank
from .spectral import LoxodromicFrame

MEMBERSHIP_TOL = 1e-9
RANK_TOL = 1e-8


def on_line_boundary(space: HermitianSpace, p: QArray, line,
                     tol: float = MEMBERSHIP_TOL) -> bool:
    """Projective membership of a null point in the boundary circle of
    an F-line: a rank condition on the three lifts."""
    c1, c2 = line
    return quaternionic_rank([p, c1, c2], tol=tol) <= 2


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


def _frame_gram(space: HermitianSpace, fa: LoxodromicFrame,
                fb: LoxodromicFrame):
    """Gram product K of v = [a_A, r_A, x_A..., a_B, r_B, x_B...] and
    the matrix V with these columns.  <v_i, v_j> is entry (j, i) of K;
    A's vectors sit at indices 0..n and B's at n+1..2n+1."""
    vs = [fa.attracting, fa.repelling, *fa.positives,
          fb.attracting, fb.repelling, *fb.positives]
    return space.gram(vs), QArray.from_columns(vs)


def _misses_polars(K: QArray, norms: np.ndarray, line, xs: np.ndarray,
                   tol: float) -> np.ndarray:
    """For each index x in xs: does the boundary circle of the line
    spanned by the null lifts at indices line = (c1, c2) miss the
    boundary of the hyperplane polar to v_x?

    Null vectors of the line are c1*alpha + c2*beta; with s = <c1, x>,
    u = <c2, x>, membership in x-perp forces alpha = -s^{-1} u beta, and
    a null solution exists iff Re(conj(s) u) = 0 (or s, u degenerate).
    """
    c1, c2 = line
    s, u = K.pick(xs, c1), K.pick(xs, c2)
    scale1 = norms[c1] * norms[xs]
    scale2 = norms[c2] * norms[xs]
    cross = (np.conj(s.a) * u.a + np.conj(s.b) * u.b).real  # Re(conj(s) u)
    return ~((s.moduli() <= tol * scale1) | (u.moduli() <= tol * scale2)
             | (np.abs(cross) <= tol * scale1 * scale2))


def _max_matching(M: np.ndarray):
    """Row->column assignment of a boolean matrix, as (pairs, size)."""
    if not M.any():
        return [], 0
    match = maximum_bipartite_matching(csr_matrix(M), perm_type="column")
    pairs = [(i, int(match[i])) for i in range(M.shape[0]) if match[i] >= 0]
    return pairs, len(pairs)


def _multiple_matchings(M: np.ndarray, pairs, k: int) -> bool:
    """Given the first k pairs of a maximum matching of M, does M have
    a second matching of size k?  One exists iff dropping some edge of
    the first still leaves a matching of size k: at most k re-matchings.
    """
    if len(pairs) < k:
        return False
    for i, j in pairs:
        M2 = M.copy()
        M2[i, j] = False
        if _max_matching(M2)[1] >= k:
            return True
    return False


def genericity_report(space: HermitianSpace, fa: LoxodromicFrame,
                      fb: LoxodromicFrame,
                      tol: float = MEMBERSHIP_TOL) -> PairGenericityReport:
    n = space.n
    K, V = _frame_gram(space, fa, fb)
    norms = np.linalg.norm(V.moduli(), axis=0)
    fixed_a, fixed_b = [0, 1], [n + 1, n + 2]
    failing: List[str] = []
    # two null lifts span the same boundary point iff they pair to zero
    floor = tol * np.outer(norms[fixed_b], norms[fixed_a])
    if np.any(K.pick(*np.ix_(fixed_b, fixed_a)).moduli() <= floor):
        failing.append("common-fixed-point")

    # (f_i, g_j) is a generic flag pair iff neither point lies on the
    # other line and neither line meets the other polar's boundary.  All
    # flags of one frame share its point and line, so the point test is
    # one for every pair and each polar test depends on i or j alone.
    line_a = (fa.attracting, fa.repelling)
    line_b = (fb.attracting, fb.repelling)
    points_ok = not (on_line_boundary(space, fa.attracting, line_b, tol)
                     or on_line_boundary(space, fb.attracting, line_a, tol))
    rows = _misses_polars(K, norms, fixed_b, np.arange(2, n + 1), tol)
    cols = _misses_polars(K, norms, fixed_a, np.arange(n + 3, 2 * n + 2),
                          tol)
    M = points_ok & np.outer(rows, cols)

    pairs, size = _max_matching(M)
    if size < n - 2:
        failing.append("flag-matching")
    pairs = pairs[:n - 2]
    matched_a = [p[0] for p in pairs]
    matched_b = [p[1] for p in pairs]
    omitted_a = next((i for i in range(n - 1) if i not in matched_a), None)
    omitted_b = next((j for j in range(n - 1) if j not in matched_b), None)

    weakly = not failing
    rank4 = quaternionic_rank([*line_a, *line_b], tol=RANK_TOL) >= 4
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
        multiple_matchings=_multiple_matchings(M, pairs, n - 2),
        failing_conditions=failing,
    )
