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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import (NormalizationImpossible, NotWeaklyNonsingular,
                     PatternViolation)
from .genericity import PairGenericityReport, genericity_report
from .hermitian import HermitianSpace
from .qmatrix import QArray
from .quat import Quaternion
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

    @property
    def n(self) -> int:
        return self.space.n

    @cached_property
    def gram(self) -> QArray:
        """The Gram product of the lifts, formed once for every reader:
        <p_i, p_j> is its entry (j, i)."""
        return self.space.gram(self.lifts)


def _unit_scale_for(space: HermitianSpace, anchor: QArray,
                    raw: QArray) -> Quaternion:
    """Scalar c with <anchor, raw*c> = 1."""
    g = space.inner(anchor, raw)
    if abs(g) <= INNER_TOL * anchor.norm() * raw.norm():
        raise NormalizationImpossible("required inner product vanishes")
    return g.inverse().conjugate()


def normalize_lifts(space: HermitianSpace, fa: LoxodromicFrame,
                    fb: LoxodromicFrame,
                    report: Optional[PairGenericityReport] = None,
                    anchor: str = "standard") -> AssociatedTuple:
    """Build the normalized associated tuple of a weakly non-singular pair.

    anchor="standard" takes p1 positively proportional to the standard
    lift of a_A; anchor="none" keeps the direction of the supplied
    attracting lift (used to exhibit the global-unit gauge freedom).
    """
    if report is None:
        report = genericity_report(space, fa, fb)
    if not report.weakly_nonsingular:
        raise NotWeaklyNonsingular(
            f"pair fails genericity: {report.failing_conditions}")

    a_raw = space.standard_lift(fa.attracting) if anchor == "standard" \
        else fa.attracting
    r_raw, ab_raw, rb_raw = fa.repelling, fb.attracting, fb.repelling
    g12 = space.inner(a_raw, r_raw)
    g13 = space.inner(a_raw, ab_raw)
    g23 = space.inner(ab_raw, r_raw)
    for g, s in ((g12, r_raw), (g13, ab_raw), (g23, r_raw)):
        if abs(g) <= INNER_TOL * a_raw.norm() * s.norm():
            raise NormalizationImpossible("degenerate fixed-point pairing")
    # |<p2,p3>| = 1 fixes the positive factor on p1
    t = float(np.sqrt(abs(g23) / (abs(g12) * abs(g13))))
    p1 = a_raw.scale(t)

    p2 = r_raw.rmul(_unit_scale_for(space, p1, r_raw))
    p3 = ab_raw.rmul(_unit_scale_for(space, p1, ab_raw))
    p4 = rb_raw.rmul(_unit_scale_for(space, p1, rb_raw))
    pos_a = [fa.positives[j].rmul(_unit_scale_for(space, p3, fa.positives[j]))
             for j in report.matching_A]
    pos_b = [fb.positives[k].rmul(_unit_scale_for(space, p1, fb.positives[k]))
             for k in report.matching_B]
    omit_a = fa.positives[report.omitted_A]
    omit_b = fb.positives[report.omitted_B]
    return AssociatedTuple(space, [p1, p2, p3, p4, *pos_a, *pos_b],
                           omit_a, omit_b,
                           list(report.matching_A), list(report.matching_B))


def gram_matrix(t: AssociatedTuple, tol: float = PATTERN_TOL) -> np.ndarray:
    """2n x 2n array of Quaternion pairings G[i, j] = <p_i, p_j>,
    pattern-checked."""
    n = t.n
    m = 2 * n
    G = np.array(t.gram.to_quaternions(), dtype=object).T

    def _is(i, j, val):
        if abs(G[i, j] - val) > tol:
            raise PatternViolation(
                f"g[{i + 1},{j + 1}] = {G[i, j]}, expected {val}")

    one, zero = Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0)
    for i in range(4):
        _is(i, i, zero)
    _is(0, 1, one)
    _is(0, 2, one)
    _is(0, 3, one)
    if abs(abs(G[1, 2]) - 1.0) > tol:
        raise PatternViolation(f"|g23| = {abs(G[1, 2])}, expected 1")
    for j in range(4, n + 2):          # A-positive block
        _is(0, j, zero)
        _is(1, j, zero)
        _is(2, j, one)
        if abs(G[3, j]) <= tol:
            raise PatternViolation(f"g[4,{j + 1}] vanishes")
        for k in range(j + 1, n + 2):
            _is(j, k, zero)
    for k in range(n + 2, m):          # B-positive block
        _is(0, k, one)
        _is(2, k, zero)
        _is(3, k, zero)
        if abs(G[1, k]) <= tol:
            raise PatternViolation(f"g[2,{k + 1}] vanishes")
        for l in range(k + 1, m):
            _is(k, l, zero)
    return G


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
