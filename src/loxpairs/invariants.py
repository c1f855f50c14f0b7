"""Numerical conjugacy invariants of a weakly non-singular pair:
angular invariants, usual and generalized cross-ratios, eta invariants,
and the Sp(1)-orbit comparison of invariant tuples.

Quaternion-valued invariants are computed on the normalized lifts, so
they are well-defined numbers; conjugating the pair moves them all by a
single unit-quaternion similarity.
Each invariant is a word in pairings (CROSS, TRIPLE) that `_words`
evaluates entrywise over index rows of one Gram product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import List, Optional

import numpy as np

from .errors import DegenerateConfiguration
from .gram import AssociatedTuple, normalize_lifts
from .genericity import PairGenericityReport, genericity_report
from .hermitian import HermitianSpace, gauge
from .qmatrix import QArray
from .quat import Quaternion
from .spectral import LoxodromicFrame

DEGENERATE_TOL = 1e-10


# Words in pairings over a row (i1, i2, ...) of lift indices: a letter
# (p, q, inverted) is g(i_p, i_q) = <z_ip, z_iq>, inverted when flagged.
CROSS = ((2, 0, False), (2, 1, True), (3, 1, False), (3, 0, True))
TRIPLE = ((0, 1, False), (1, 2, False), (2, 0, False))


def _words(space: HermitianSpace, zs: List[QArray], rows, word,
           K: Optional[QArray] = None) -> QArray:
    """The word evaluated on every row of rows, one entry per row, its
    letters multiplied left to right.  g(i, j) is entry (j, i) of
    K = space.gram(zs), formed here when the caller does not have it,
    and every entry read is checked against DEGENERATE_TOL |z_i| |z_j|
    in one comparison."""
    if K is None:
        K = space.gram(zs)
    norms = np.linalg.norm(QArray.from_columns(zs).moduli(), axis=0)
    p, q, inverted = zip(*word)
    rows = np.asarray(rows)
    i, j = rows[:, p], rows[:, q]
    g = K.pick(j, i)
    if np.any(g.moduli() <= DEGENERATE_TOL * norms[i] * norms[j]):
        raise DegenerateConfiguration("vanishing inner product")
    letters = [g.pick(slice(None), m) for m in range(len(word))]
    return reduce(QArray.__mul__, [f.reciprocal() if inv else f
                                   for f, inv in zip(letters, inverted)])


def _angles(T: QArray) -> np.ndarray:
    """arccos(Re(-T) / |T|) of each triple product T, in [0, pi]."""
    return np.arccos(np.clip(-T.a.real / T.moduli(), -1.0, 1.0))


def cross_ratio(space: HermitianSpace, z1: QArray, z2: QArray,
                z3: QArray, z4: QArray) -> Quaternion:
    """<z3,z1><z3,z2>^-1 <z4,z2><z4,z1>^-1, exactly in this order."""
    return _words(space, [z1, z2, z3, z4], [(0, 1, 2, 3)], CROSS).entry(0)


def triple_product(space: HermitianSpace, z1, z2, z3) -> Quaternion:
    """<z1,z2><z2,z3><z3,z1>."""
    return _words(space, [z1, z2, z3], [(0, 1, 2)], TRIPLE).entry(0)


def angular_invariant(space: HermitianSpace, z1, z2, z3) -> float:
    """arccos(Re(-<z1,z2,z3>)/|<z1,z2,z3>|), in [0, pi]; lift-independent."""
    return float(_angles(_words(space, [z1, z2, z3], [(0, 1, 2)],
                                TRIPLE))[0])


@dataclass
class InvariantTuple:
    field_tag: str
    real_trace_A: np.ndarray
    real_trace_B: np.ndarray
    angular: np.ndarray                 # A1, A2, A3
    X1: Quaternion
    X2: Quaternion
    X3: Quaternion
    alpha: List[Quaternion]             # X_{2k}, one per matched B-positive
    beta: List[Quaternion]              # X_{4j}, one per matched A-positive
    mixed: List[List[Quaternion]]       # X_{jk} grid, (n-2) x (n-2)
    eta_A: List[Quaternion]             # eta_j over A-positives
    eta_B: List[Quaternion]             # eta_k over B-positives
    projective_A: List[np.ndarray]
    projective_B: List[np.ndarray]
    matching_A: List[int] = field(default_factory=list)
    matching_B: List[int] = field(default_factory=list)

    def quaternion_entries(self) -> List[Quaternion]:
        out = [self.X1, self.X2, self.X3, *self.alpha, *self.beta]
        for row in self.mixed:
            out.extend(row)
        out.extend(self.eta_A)
        out.extend(self.eta_B)
        return out

    def reduced_entries(self) -> List[Quaternion]:
        """The short list sufficient for non-singular pairs: X1, X2,
        alpha, beta (angular and traces are compared separately)."""
        return [self.X1, self.X2, *self.alpha, *self.beta]


def pair_invariants(space: HermitianSpace, fa: LoxodromicFrame,
                    fb: LoxodromicFrame,
                    report: Optional[PairGenericityReport] = None,
                    tuple_: Optional[AssociatedTuple] = None) -> InvariantTuple:
    """Invariant tuple of a weakly non-singular pair, every pairing read
    from one Gram product of the normalized lifts and every invariant
    evaluated as one array expression.  The eta invariant
    <p3,xj><p3,p4>^-1 <xj,p4><xj,xj>^-1 of an A-positive xj is the
    cross-ratio X(xj,p4,p3,xj); that of a B-positive xk is X(xk,p2,p1,xk).
    """
    if report is None:
        report = genericity_report(space, fa, fb)
    if tuple_ is None:
        tuple_ = normalize_lifts(space, fa, fb, report=report)
    n, d, p = space.n, space.n - 2, tuple_.lifts
    apos, bpos = range(4, n + 2), range(n + 2, 2 * n)
    rows = [(0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 2, 0)]
    rows += [(0, 1, 2, k) for k in bpos] + [(2, 3, 0, j) for j in apos]
    rows += [(2, k, 1, j) for j in apos for k in bpos]
    rows += [(j, 3, 2, j) for j in apos] + [(k, 1, 0, k) for k in bpos]
    xs = iter(_words(space, p, rows, CROSS, tuple_.gram).to_quaternions())

    def take(k):
        return [next(xs) for _ in range(k)]

    X1, X2, X3 = take(3)
    alpha, beta = take(d), take(d)
    mixed = [take(d) for _ in range(d)]
    eta_A, eta_B = take(d), take(d)
    return InvariantTuple(
        field_tag=space.field,
        real_trace_A=fa.real_trace,
        real_trace_B=fb.real_trace,
        angular=_angles(_words(space, p, [(0, 1, 2), (0, 1, 3), (1, 2, 3)],
                               TRIPLE, tuple_.gram)),
        X1=X1, X2=X2, X3=X3,
        alpha=alpha, beta=beta, mixed=mixed, eta_A=eta_A, eta_B=eta_B,
        projective_A=fa.points(), projective_B=fb.points(),
        matching_A=list(tuple_.matching_A),
        matching_B=list(tuple_.matching_B))


def sp1_orbit_equal(t1: InvariantTuple, t2: InvariantTuple,
                    tol: float = 1e-8) -> Optional[Quaternion]:
    """Unit mu conjugating every quaternion entry of t1 onto t2, or None
    (mu = 1 in complex mode, see hermitian.gauge)."""
    e1, e2 = t1.quaternion_entries(), t2.quaternion_entries()
    if len(e1) != len(e2):
        return None
    return gauge(t1.field_tag, zip(e1, e2), tol)
