"""Flags of loxodromic elements and the generic-pair predicates that
gate the Gram-matrix normalization.

A flag of A is (a_A, L_A, W_j): the attracting fixed point, the line
through the two fixed points, and the hyperplane polar to a positive
eigenvector.  Pair genericity reduces to conditions on the lifts: array
expressions over the Gram products of both frames of every pair of a
stack, formed as one product (`_frame_gram`), for the pairings, and
coordinate ranks for point membership and the rank-4 test, one stacked
rank call each.  A single pair is a list of one.  The flag-pair matrix
is the outer product of a row mask and a column mask, so its matchings
are read off the two masks (`_flag_matching`) with no bipartite matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial
from typing import List, Optional, Tuple

import numpy as np

from .hermitian import HermitianSpace
from .qmatrix import QArray, quaternionic_rank

MEMBERSHIP_TOL = 1e-9
RANK_TOL = 1e-8


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
    # (K, V, norms) of _frame_gram for the frames the report is about,
    # which gram.normalize_lifts reads instead of forming them again
    frame_gram: Optional[Tuple[QArray, QArray, np.ndarray]] = \
        field(default=None, repr=False)


def _frame_gram(space: HermitianSpace, fas, fbs):
    """Gram products K of v = [a_A, r_A, x_A..., a_B, r_B, x_B...] for
    a stack of pairs of frames, fas and fbs the sequences of the frames
    of A and of B, the stack V of matrices with these columns and their
    norms.  <v_i, v_j> is entry (j, i) of K; A's vectors sit at indices
    0..n and B's at n+1..2n+1."""
    perm = [0, space.n, *range(1, space.n)]    # frame columns (a, x..., r)
    Fa, Fb = (QArray.stack([f.F for f in fs]) for fs in (fas, fbs))
    V = QArray(np.concatenate([Fa.a[..., perm], Fb.a[..., perm]], axis=-1),
               np.concatenate([Fa.b[..., perm], Fb.b[..., perm]], axis=-1))
    return space.gram(V), V, np.linalg.norm(V.moduli(), axis=-2)


def _misses_polars(K: QArray, norms: np.ndarray, line,
                   xs: np.ndarray) -> np.ndarray:
    """For each index x in xs, in each Gram product of the stack K: does
    the boundary circle of the line spanned by the null lifts at indices
    line = (c1, c2) miss the boundary of the hyperplane polar to v_x?

    Null vectors of the line are c1*alpha + c2*beta; with s = <c1, x>,
    u = <c2, x>, membership in x-perp forces alpha = -s^{-1} u beta, and
    a null solution exists iff Re(conj(s) u) = 0 (or s, u degenerate).
    One margin decides, tol |c1| |c2| |x|^2 on |Re(conj(s) u)| with tol
    = MEMBERSHIP_TOL: H only permutes coordinates, so |<c, x>| <=
    |c| |x|, and |s| <= tol |c1| |x| (or |u| <= tol |c2| |x|) already
    puts |Re(conj(s) u)| <= |s| |u| within that margin.
    """
    c1, c2 = line
    s, u = K.pick(Ellipsis, xs, c1), K.pick(Ellipsis, xs, c2)
    scale1 = norms[..., c1, None] * norms[..., xs]
    scale2 = norms[..., c2, None] * norms[..., xs]
    cross = (np.conj(s.a) * u.a + np.conj(s.b) * u.b).real  # Re(conj(s) u)
    return ~(np.abs(cross) <= MEMBERSHIP_TOL * scale1 * scale2)


def _flag_matching(M: np.ndarray, k: int):
    """Matching of size k in the flag-pair matrix M, as (pairs, found,
    multiple).  M is the outer product of a row mask and a column mask,
    so the i-th good row matches the i-th good column, and with r good
    rows and c good columns there are comb(r, k) comb(c, k) k!
    matchings of size k."""
    rows, cols = np.flatnonzero(M.any(axis=1)), np.flatnonzero(M.any(axis=0))
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols)][:k]
    count = comb(len(rows), k) * comb(len(cols), k) * factorial(k)
    return pairs, len(pairs) == k, count > 1


def genericity_report(space: HermitianSpace, fas, fbs):
    """The list of reports of a stack of pairs of frames, fas and fbs the
    sequences of the frames of A and of B: one Gram product and two
    stacked rank tests for the whole stack."""
    n = space.n
    K, V, norms = _frame_gram(space, fas, fbs)
    fixed_a, fixed_b = [0, 1], [n + 1, n + 2]
    # two null lifts span the same boundary point iff they pair to zero
    floor = MEMBERSHIP_TOL * (norms[:, fixed_b, None]
                              * norms[:, None, fixed_a])
    common = np.any(K.pick(slice(None), *np.ix_(fixed_b, fixed_a)).moduli()
                    <= floor, axis=(-2, -1))

    # (f_i, g_j) is a generic flag pair iff neither point lies on the
    # other line and neither line meets the other polar's boundary.  All
    # flags of one frame share its point and line, so the point test is
    # one for every pair and each polar test depends on i or j alone.
    # A null point lies on the boundary circle of a line iff its lift
    # and the line's two null lifts have rank 2; one stacked rank tests
    # a_A against the line of B and a_B against that of A, in every pair.
    lines = np.array([fixed_a[:1] + fixed_b, fixed_b[:1] + fixed_a])
    on_line = quaternionic_rank(QArray(
        *(np.swapaxes(x[..., lines], 1, 2) for x in (V.a, V.b))),
        tol=MEMBERSHIP_TOL)
    points_ok = ~np.any(on_line <= 2, axis=-1)
    rows = _misses_polars(K, norms, fixed_b, np.arange(2, n + 1))
    cols = _misses_polars(K, norms, fixed_a, np.arange(n + 3, 2 * n + 2))
    M = points_ok[:, None, None] & (rows[:, :, None] & cols[:, None, :])
    rank4 = quaternionic_rank(V.pick(Ellipsis, fixed_a + fixed_b),
                              tol=RANK_TOL) >= 4

    reports = []
    for e in range(len(fas)):
        failing: List[str] = ["common-fixed-point"] if common[e] else []
        pairs, found, multiple = _flag_matching(M[e], n - 2)
        if not found:
            failing.append("flag-matching")
        matched_a = [p[0] for p in pairs]
        matched_b = [p[1] for p in pairs]
        weakly = not failing
        if not rank4[e]:
            failing.append("fixed-points-in-hyperplane-boundary")
        reports.append(PairGenericityReport(
            weakly_nonsingular=weakly,
            nonsingular=weakly and bool(rank4[e]),
            flag_pair_matrix=M[e],
            matching_A=matched_a,
            matching_B=matched_b,
            omitted_A=next((i for i in range(n - 1) if i not in matched_a),
                           None),
            omitted_B=next((j for j in range(n - 1) if j not in matched_b),
                           None),
            multiple_matchings=multiple,
            failing_conditions=failing,
            frame_gram=(K.pick(e), V.pick(e), norms[e]),
        ))
    return reports
