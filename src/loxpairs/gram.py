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
it alone gates the vanishing pairings.
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


def _normalize_quadruple(space: HermitianSpace, zs: List[QArray],
                         anchor: str = "standard") -> List[QArray]:
    """Rescale lifts (z1, z2, z3, z4) to (p1, p2, p3, p4) with
    <p1,p2> = <p1,p3> = <p1,p4> = 1 = |<p2,p3>|.

    anchor="standard" takes p1 positively proportional to the standard
    lift of z1; anchor="none" keeps the direction of z1 (used to exhibit
    the global-unit gauge freedom).
    """
    a = space.standard_lift(zs[0]) if anchor == "standard" else zs[0]
    norms = [a.norm()] + [z.norm() for z in zs[1:]]
    g = [space.inner(a, z) for z in zs[1:]]         # <a, z_k>, k = 2, 3, 4
    g23 = space.inner(zs[2], zs[1])
    floors = [norms[0] * nk for nk in norms[1:]] + [norms[2] * norms[1]]
    if any(abs(gk) <= INNER_TOL * f for gk, f in zip(g + [g23], floors)):
        raise NormalizationImpossible(
            "lift normalization meets a vanishing pairing")
    # |<p2,p3>| = 1 fixes the positive factor t on p1; t is real, so
    # <p1, z> = <a, z> t needs no further pairing
    t = float(np.sqrt(abs(g23) / (abs(g[0]) * abs(g[1]))))
    return [a.scale(t)] + [z.rmul((gk * t).inverse().conjugate())
                           for z, gk in zip(zs[1:], g)]


def normalize_lifts(space: HermitianSpace, fa: LoxodromicFrame,
                    fb: LoxodromicFrame,
                    report: Optional[PairGenericityReport] = None,
                    anchor: str = "standard") -> AssociatedTuple:
    """Build the normalized associated tuple of a weakly non-singular pair.

    The fixed-point lifts (a_A, r_A, a_B, r_B) go through
    _normalize_quadruple with the given anchor; the matched positive
    eigenvectors are then rescaled against p3 and p1.
    """
    if report is None:
        report = genericity_report(space, fa, fb)
    if not report.weakly_nonsingular:
        raise NotWeaklyNonsingular(
            f"pair fails genericity: {report.failing_conditions}")

    p1, p2, p3, p4 = _normalize_quadruple(
        space, [fa.attracting, fa.repelling, fb.attracting, fb.repelling],
        anchor)
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
