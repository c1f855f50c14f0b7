"""Numerical conjugacy invariants of a weakly non-singular pair:
angular invariants, usual and generalized cross-ratios, eta invariants,
and the Sp(1)-orbit comparison of invariant tuples.

Quaternion-valued invariants are computed on the normalized lifts, so
they are well-defined numbers; conjugating the pair moves them all by a
single unit-quaternion similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import DegenerateConfiguration
from .gram import AssociatedTuple, normalize_lifts
from .genericity import PairGenericityReport, genericity_report
from .hermitian import HermitianSpace, gauge
from .qmatrix import QArray
from .quat import Quaternion
from .spectral import LoxodromicFrame, real_trace_from_frame

DEGENERATE_TOL = 1e-10


def _pairings(space: HermitianSpace, zs: List[QArray],
              K: Optional[QArray] = None):
    """g(i, j) = <z_i, z_j>, read from one Gram product of zs and checked
    against DEGENERATE_TOL |z_i| |z_j| on every read.  K, when the caller
    has it, is space.gram(zs)."""
    if K is None:
        K = space.gram(zs)
    norms = [z.norm() for z in zs]

    def g(i: int, j: int) -> Quaternion:
        q = K.entry(j, i)
        if abs(q) <= DEGENERATE_TOL * norms[i] * norms[j]:
            raise DegenerateConfiguration("vanishing inner product")
        return q

    return g


def _cross(g, i1: int, i2: int, i3: int, i4: int) -> Quaternion:
    return (g(i3, i1) * g(i3, i2).inverse()
            * g(i4, i2) * g(i4, i1).inverse())


def _triple(g, i1: int, i2: int, i3: int) -> Quaternion:
    return g(i1, i2) * g(i2, i3) * g(i3, i1)


def _angular(g, i1: int, i2: int, i3: int) -> float:
    t = _triple(g, i1, i2, i3)
    return float(np.arccos(np.clip(-t.w / abs(t), -1.0, 1.0)))


def cross_ratio(space: HermitianSpace, z1: QArray, z2: QArray,
                z3: QArray, z4: QArray) -> Quaternion:
    """<z3,z1><z3,z2>^-1 <z4,z2><z4,z1>^-1, exactly in this order."""
    return _cross(_pairings(space, [z1, z2, z3, z4]), 0, 1, 2, 3)


def triple_product(space: HermitianSpace, z1, z2, z3) -> Quaternion:
    """<z1,z2><z2,z3><z3,z1>."""
    return _triple(_pairings(space, [z1, z2, z3]), 0, 1, 2)


def angular_invariant(space: HermitianSpace, z1, z2, z3) -> float:
    """arccos(Re(-<z1,z2,z3>)/|<z1,z2,z3>|), in [0, pi]; lift-independent."""
    return _angular(_pairings(space, [z1, z2, z3]), 0, 1, 2)


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
    from one Gram product of the normalized lifts.  The eta invariant
    <p3,xj><p3,p4>^-1 <xj,p4><xj,xj>^-1 of an A-positive xj is the
    cross-ratio X(xj,p4,p3,xj); that of a B-positive xk is X(xk,p2,p1,xk).
    """
    if report is None:
        report = genericity_report(space, fa, fb)
    if tuple_ is None:
        tuple_ = normalize_lifts(space, fa, fb, report=report)
    n = space.n
    g = _pairings(space, tuple_.lifts, tuple_.gram)
    ang = np.array([_angular(g, 0, 1, 2), _angular(g, 0, 1, 3),
                    _angular(g, 1, 2, 3)])
    X1 = _cross(g, 0, 1, 2, 3)
    X2 = _cross(g, 0, 2, 1, 3)
    X3 = _cross(g, 1, 3, 2, 0)
    apos = range(4, n + 2)
    bpos = range(n + 2, 2 * n)
    alpha = [_cross(g, 0, 1, 2, k) for k in bpos]
    beta = [_cross(g, 2, 3, 0, j) for j in apos]
    mixed = [[_cross(g, 2, k, 1, j) for k in bpos] for j in apos]
    eta_A = [_cross(g, j, 3, 2, j) for j in apos]
    eta_B = [_cross(g, k, 1, 0, k) for k in bpos]
    return InvariantTuple(
        field_tag=space.field,
        real_trace_A=real_trace_from_frame(fa),
        real_trace_B=real_trace_from_frame(fb),
        angular=ang, X1=X1, X2=X2, X3=X3,
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
