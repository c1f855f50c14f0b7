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

The rule for the first four lifts, `_normalize_quadruple`, is the one
lift normalization of the package: it also normalizes quadruples of
boundary points for `classify.boundary_quadruple_congruence` and the
quadruple (a_A, r_A, a_B, K r_C) of `twistbend.tilde_invariants`, and
its scalars let `normalize_lifts` read every pairing from one Gram
product of both frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import (NormalizationImpossible, NotWeaklyNonsingular,
                     PatternViolation)
from .genericity import (PairGenericityReport, _frame_gram,
                         genericity_report)
from .hermitian import HermitianSpace
from .qmatrix import QArray
from .quat import ONE, Quaternion
from .spectral import LoxodromicFrame

INNER_TOL = 1e-10
PATTERN_TOL = 1e-8


@dataclass
class AssociatedTuple:
    space: HermitianSpace
    lifts: List[QArray]          # p1 .. p_{2n}
    omitted_A: QArray            # p_{2n+1}
    omitted_B: QArray            # p_{2n+2}
    matching_A: List[int]
    matching_B: List[int]

    @cached_property
    def gram(self) -> QArray:
        """The Gram product of the lifts, formed once for every reader:
        <p_i, p_j> is its entry (j, i)."""
        return self.space.gram(self.lifts)


def _unit_pairing(g: QArray, anchor_norm, norms) -> QArray:
    """Scalars c = conj(g^-1) = g / |g|^2 with <anchor, z c> = 1, one
    per pairing g = <anchor, z>, each gated against INNER_TOL |anchor|
    |z| for the norms of the zs."""
    mods = g.moduli()
    if np.any(mods <= INNER_TOL * anchor_norm * norms):
        raise NormalizationImpossible(
            "lift normalization meets a vanishing pairing")
    return g.scale(mods ** -2.0)


def _normalize_quadruple(space: HermitianSpace, zs: List[QArray],
                         anchor: str = "standard",
                         K: Optional[QArray] = None):
    """Rescale lifts (z1, z2, z3, z4) to (p1, p2, p3, p4) with
    <p1,p2> = <p1,p3> = <p1,p4> = 1 = |<p2,p3>|, and return them with
    the right scalars s (a QArray of four entries), p_k = z_k s_k.

    Every pairing is read from K, the Gram product of zs, formed here
    when the caller does not have it.  anchor="standard" takes p1
    positively proportional to the standard lift of z1; anchor="none"
    keeps the direction of z1 (used to exhibit the global-unit gauge
    freedom).
    """
    if K is None:
        K = space.gram(zs)
    Z = QArray.from_columns(zs)
    norms = np.linalg.norm(Z.moduli(), axis=0)
    c = QArray(*(space.standard_scalar(zs[0]) if anchor == "standard"
                 else ONE).complex_pair())
    g23 = K.pick(1, 2).moduli()
    if g23 <= INNER_TOL * norms[2] * norms[1]:
        raise NormalizationImpossible(
            "lift normalization meets a vanishing pairing")
    # a = z1 c pairs with z_k as <z1, z_k> c; |<p2,p3>| = 1 fixes the
    # positive factor t of p1 = a t, and <p1, z> = <a, z> t
    g = K.pick([1, 2, 3], 0) * c
    u = _unit_pairing(g, norms[0] * c.moduli(), norms[1:])
    t = float(np.sqrt(g23 / (g.moduli()[0] * g.moduli()[1])))
    s = QArray(np.append(c.a * t, u.a / t), np.append(c.b * t, u.b / t))
    return (Z * s).columns(), s


def normalize_lifts(space: HermitianSpace, fa: LoxodromicFrame,
                    fb: LoxodromicFrame,
                    report: Optional[PairGenericityReport] = None,
                    anchor: str = "standard") -> AssociatedTuple:
    """Build the normalized associated tuple of a weakly non-singular pair.

    The fixed-point lifts (a_A, r_A, a_B, r_B) go through
    _normalize_quadruple with the given anchor; the matched positive
    eigenvectors are then rescaled to pair to 1 with p3 (A's) and p1
    (B's).  Every pairing comes from one Gram product of both frames,
    with <p_k, x> = <z_k, x> s_k for the quadruple's scalars s.
    """
    if report is None:
        report = genericity_report(space, fa, fb)
    if not report.weakly_nonsingular:
        raise NotWeaklyNonsingular(
            f"pair fails genericity: {report.failing_conditions}")

    n = space.n
    K, V = _frame_gram(space, fa, fb)
    norms = np.linalg.norm(V.moduli(), axis=0)
    quad = np.array([0, 1, n + 1, n + 2])
    (p1, p2, p3, p4), s = _normalize_quadruple(
        space, [fa.attracting, fa.repelling, fb.attracting, fb.repelling],
        anchor, K.pick(*np.ix_(quad, quad)))
    idx = np.array([2 + j for j in report.matching_A]
                   + [n + 3 + k for k in report.matching_B], dtype=int)
    slot = np.repeat([2, 0], n - 2)                 # anchors p3 and p1
    g = K.pick(idx, quad[slot]) * s.pick(slot)      # <p_slot, x>
    c = _unit_pairing(g, norms[quad[slot]] * s.moduli()[slot], norms[idx])
    omit_a = fa.positives[report.omitted_A]
    omit_b = fb.positives[report.omitted_B]
    return AssociatedTuple(space, [p1, p2, p3, p4,
                                   *(V.pick(slice(None), idx) * c).columns()],
                           omit_a, omit_b,
                           list(report.matching_A), list(report.matching_B))


def gram_matrix(t: AssociatedTuple, tol: float = PATTERN_TOL) -> np.ndarray:
    """2n x 2n array of Quaternion pairings G[i, j] = <p_i, p_j>,
    pattern-checked by masked array comparisons."""
    n = t.space.n
    G = QArray(t.gram.a.T, t.gram.b.T)
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
        raise PatternViolation(f"g[{i + 1},{j + 1}] = {G.entry(i, j)}, "
                               f"expected {Quaternion(float(E[i, j]))}")
    mods = G.moduli()
    if abs(mods[1, 2] - 1.0) > tol:
        raise PatternViolation(f"|g23| = {mods[1, 2]}, expected 1")
    for j in range(4, 2 * n):          # <p4, x_j> and <p2, x_k>
        i = 3 if j < n + 2 else 1
        if mods[i, j] <= tol:
            raise PatternViolation(f"g[{i + 1},{j + 1}] vanishes")
    return np.array(G.to_quaternions(), dtype=object)


def gram_offdiagonal_entries(G: np.ndarray) -> List[Quaternion]:
    """The non-trivially-fixed entries, in a deterministic order, for
    Sp(1)-orbit comparison of two normalized Gram matrices."""
    m = G.shape[0]
    n = m // 2
    out = [G[1, 2], G[1, 3], G[2, 3]]
    out += [G[3, j] for j in range(4, n + 2)]
    out += [G[1, k] for k in range(n + 2, m)]
    out += [G[j, k] for j in range(4, n + 2) for k in range(n + 2, m)]
    out += [G[j, j] for j in range(4, m)]   # real positive norms
    return out
