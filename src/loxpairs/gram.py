"""Associated tuples of eigenvector lifts and their normalized Gram
matrices.

The 2n-tuple attached to a pair (A, B) is ordered
    p1 = a_A, p2 = r_A, p3 = a_B, p4 = r_B,
    p5 .. p_{n+2}      the n-2 matched positive eigenvectors of A,
    p_{n+3} .. p_{2n}  the n-2 matched positive eigenvectors of B,
with the two unmatched positive vectors carried along for basis
reconstruction.  Lifts are rescaled so that

    <p1,p2> = <p1,p3> = <p1,p4> = <p1,p_k> = <p3,p_j> = 1,  |<p2,p3>| = 1

(j ranging over A-positives, k over B-positives), anchored by taking p1
positively proportional to the standard lift of a_A.  The resulting
Gram matrix is unique up to conjugating every entry by one unit
quaternion.

An `AssociatedTuple` is one lift matrix P: its columns are p1 .. p_{2n},
then the omitted positives of A and of B, unscaled.

The rule for the first four lifts, `_quadruple_scalars`, is the one
lift normalization of the package.  `_normalize_quadruple` applies it
to the four columns of a matrix of boundary points for
`classify.boundary_quadruple_congruence` and to the quadruple
(a_A, r_A, a_B, K r_C) of `twistbend.tilde_invariants`, and returns the
rescaled lifts and their Gram product.  `normalize_lifts` takes only
the scalars, from the one Gram product of both frames and the norms
that `genericity_report` formed, builds P as one product of the frame
vectors and the scalars, and takes the Gram product of the whole tuple
as that frame product rescaled by the scalars of its lifts, so no
second product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (NormalizationImpossible, NotWeaklyNonsingular,
                     PatternViolation)
from .genericity import PairGenericityReport
from .hermitian import HermitianSpace
from .qmatrix import QArray
from .spectral import LoxodromicFrame

INNER_TOL = 1e-10
PATTERN_TOL = 1e-8


@dataclass
class AssociatedTuple:
    space: HermitianSpace
    P: QArray                    # columns p1 .. p_{2n}, omitted of A, of B
    matching_A: List[int]
    matching_B: List[int]
    gram: QArray                 # <p_i, p_j> is entry (j, i), i, j < 2n


def _rescaled_gram(K: QArray, s: QArray) -> QArray:
    """The Gram product of the lifts z_k s_k from K, the Gram product of
    the zs: conj(s_i) K_ij s_j."""
    return s.conj().pick(slice(None), None) * K * s


def _unit_pairing(g: QArray, anchor_norm, norms) -> QArray:
    """Scalars c = conj(g^-1) = g / |g|^2 with <anchor, z c> = 1, one
    per pairing g = <anchor, z>, each gated against INNER_TOL |anchor|
    |z| for the norms of the zs."""
    mods = g.moduli()
    if np.any(mods <= INNER_TOL * anchor_norm * norms):
        raise NormalizationImpossible(
            "lift normalization meets a vanishing pairing")
    return g.scale(mods ** -2.0)


def _quadruple_scalars(space: HermitianSpace, K: QArray, norms: np.ndarray,
                       z1: QArray, anchor: str = "standard") -> QArray:
    """The right scalars s (a QArray of four entries) that rescale lifts
    (z1, z2, z3, z4) to p_k = z_k s_k with
    <p1,p2> = <p1,p3> = <p1,p4> = 1 = |<p2,p3>|.

    Every pairing is read from K, the Gram product of the zs, and the
    gates scale with their norms.  anchor="standard" takes p1
    positively proportional to the standard lift of z1; anchor="none"
    keeps the direction of z1 (used to exhibit the global-unit gauge
    freedom).
    """
    c = space.standard_scalar(z1) if anchor == "standard" else QArray(1.0)
    g23 = K.pick(1, 2).moduli()
    if g23 <= INNER_TOL * norms[2] * norms[1]:
        raise NormalizationImpossible(
            "lift normalization meets a vanishing pairing")
    # a = z1 c pairs with z_k as <z1, z_k> c; |<p2,p3>| = 1 fixes the
    # positive factor t of p1 = a t, and <p1, z> = <a, z> t
    g = K.pick([1, 2, 3], 0) * c
    u = _unit_pairing(g, norms[0] * c.moduli(), norms[1:])
    t = float(np.sqrt(g23 / (g.moduli()[0] * g.moduli()[1])))
    return QArray(np.append(c.a * t, u.a / t), np.append(c.b * t, u.b / t))


def _normalize_quadruple(space: HermitianSpace, Z: QArray):
    """The columns (z1, z2, z3, z4) of Z rescaled by _quadruple_scalars
    (the standard anchor) to the columns (p1, p2, p3, p4) of Z s, with
    the scalars s and the Gram product of the ps, conj(s_i) K_ij s_j
    for K that of the zs."""
    K = space.gram(Z)
    s = _quadruple_scalars(space, K, np.linalg.norm(Z.moduli(), axis=0),
                           Z.column(0))
    return Z * s, s, _rescaled_gram(K, s)


def normalize_lifts(space: HermitianSpace, fa: LoxodromicFrame,
                    fb: LoxodromicFrame, report: PairGenericityReport,
                    anchor: str = "standard") -> AssociatedTuple:
    """Build the normalized associated tuple of a weakly non-singular pair.

    The fixed-point lifts (a_A, r_A, a_B, r_B) take the scalars s of
    _quadruple_scalars with the given anchor; the matched positive
    eigenvectors are then rescaled to pair to 1 with p3 (A's) and p1
    (B's).  Every pairing comes from one Gram product K of both frames,
    with <p_k, x> = <z_k, x> s_k for the quadruple's scalars s, and so
    does the tuple's own Gram product, conj(S_i) K_ij S_j for the
    scalars S of all 2n lifts.  K is the report's, which must be the
    report of these frames.  P is the one product of the frame vectors
    and S, padded by 1 for the two omitted positives.
    """
    if not report.weakly_nonsingular:
        raise NotWeaklyNonsingular(
            f"pair fails genericity: {report.failing_conditions}")

    n = space.n
    K, V, norms = report.frame_gram
    quad = np.array([0, 1, n + 1, n + 2])
    s = _quadruple_scalars(space, K.pick(*np.ix_(quad, quad)), norms[quad],
                           fa.attracting, anchor)
    idx = np.array([2 + j for j in report.matching_A]
                   + [n + 3 + k for k in report.matching_B], dtype=int)
    slot = np.repeat([2, 0], n - 2)                 # anchors p3 and p1
    g = K.pick(idx, quad[slot]) * s.pick(slot)      # <p_slot, x>
    c = _unit_pairing(g, norms[quad[slot]] * s.moduli()[slot], norms[idx])
    # p_k = v_k S_k for the frame vectors v at cols
    cols = np.append(quad, idx)
    S = QArray(np.append(s.a, c.a), np.append(s.b, c.b))
    omitted = [2 + report.omitted_A, n + 3 + report.omitted_B]
    P = V.pick(slice(None), np.append(cols, omitted)) \
        * QArray(np.append(S.a, [1, 1]), np.append(S.b, [0, 0]))
    return AssociatedTuple(space, P, list(report.matching_A),
                           list(report.matching_B),
                           _rescaled_gram(K.pick(*np.ix_(cols, cols)), S))


def gram_matrix(t: AssociatedTuple) -> QArray:
    """The 2n x 2n QArray of pairings G[i, j] = <p_i, p_j>, its pattern
    checked by masked array comparisons."""
    n, tol = t.space.n, PATTERN_TOL
    G = t.gram.transpose()
    # the values the normalization pins (0 or 1), NaN elsewhere; the
    # unpinned entries then compare NaN > tol, which is False
    E = np.full(G.shape, np.nan)
    E[range(4), range(4)] = 0
    E[0, 1:4] = 1
    for block, zero, one in ((range(4, n + 2), [0, 1], 2),
                             (range(n + 2, 2 * n), [2, 3], 0)):
        for j in block:
            E[zero, j], E[one, j] = 0, 1
            E[j, j + 1:block.stop] = 0
    bad = np.argwhere((G - QArray(E)).moduli() > tol)
    if bad.size:
        i, j = bad[0]
        w, x, y, z = G.components()[i, j]
        raise PatternViolation(
            f"g[{i + 1},{j + 1}] = Quaternion(w={w}, x={x}, y={y}, z={z}), "
            f"expected Quaternion(w={E[i, j]}, x=0.0, y=0.0, z=0.0)")
    mods = G.moduli()
    if abs(mods[1, 2] - 1.0) > tol:
        raise PatternViolation(f"|g23| = {mods[1, 2]}, expected 1")
    for j in range(4, 2 * n):          # <p4, x_j> and <p2, x_k>
        i = 3 if j < n + 2 else 1
        if mods[i, j] <= tol:
            raise PatternViolation(f"g[{i + 1},{j + 1}] vanishes")
    return G
