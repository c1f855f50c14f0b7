"""Numerical conjugacy invariants of a weakly non-singular pair:
angular invariants, usual and generalized cross-ratios, eta invariants,
and the Sp(1)-orbit comparison of invariant tuples.

Quaternion-valued invariants are computed on the normalized lifts, so
they are well-defined numbers; conjugating the pair moves them all by a
single unit-quaternion similarity, the one that moves every entry of the
normalized Gram matrix.  The unit `sp1_orbit_equal` finds is therefore
the gauge under which `classify.conjugacy_test` reconstructs the
conjugator from the lifts.
Each invariant is a word in pairings (CROSS, TRIPLE) that `_words`
evaluates entrywise over index rows of one Gram product, or of each
Gram product of a stack: `pair_invariants` takes the frames, reports
and tuples of a stack of pairs, one entry per pair, and evaluates every
invariant of the stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional

import numpy as np

from .errors import DegenerateConfiguration
from .hermitian import HermitianSpace, gauge
from .qmatrix import QArray
from .spectral import projective_points

DEGENERATE_TOL = 1e-10


# Words in pairings over a row (i1, i2, ...) of lift indices: a letter
# (p, q, inverted) is g(i_p, i_q) = <z_ip, z_iq>, inverted when flagged.
CROSS = ((2, 0, False), (2, 1, True), (3, 1, False), (3, 0, True))
TRIPLE = ((0, 1, False), (1, 2, False), (2, 0, False))


def _words(Z: QArray, K: QArray, rows, word) -> QArray:
    """The word evaluated on every row of rows, one entry per row, its
    letters multiplied left to right; or one such vector per matrix of
    a stack Z (k, m, N) with its stack K.  g(i, j) is entry (j, i) of
    K, the Gram product of the columns z_i of Z, and every entry read is
    checked against DEGENERATE_TOL |z_i| |z_j| in one comparison."""
    norms = np.linalg.norm(Z.moduli(), axis=-2)
    p, q, inverted = zip(*word)
    rows = np.asarray(rows)
    i, j = rows[:, p], rows[:, q]
    g = K.pick(Ellipsis, j, i)
    if np.any(g.moduli() <= DEGENERATE_TOL * norms[..., i] * norms[..., j]):
        raise DegenerateConfiguration("vanishing inner product")
    letters = [g.pick(Ellipsis, m) for m in range(len(word))]
    return reduce(QArray.__mul__, [f.reciprocal() if inv else f
                                   for f, inv in zip(letters, inverted)])


def _angles(T: QArray) -> np.ndarray:
    """arccos(Re(-T) / |T|) of each triple product T, in [0, pi]."""
    return np.arccos(np.clip(-T.a.real / T.moduli(), -1.0, 1.0))


def cross_ratio(space: HermitianSpace, z1: QArray, z2: QArray,
                z3: QArray, z4: QArray) -> QArray:
    """<z3,z1><z3,z2>^-1 <z4,z2><z4,z1>^-1, exactly in this order, as a
    0-d QArray."""
    Z = QArray.from_columns([z1, z2, z3, z4])
    return _words(Z, space.gram(Z), [(0, 1, 2, 3)], CROSS).pick(0)


def triple_product(space: HermitianSpace, z1, z2, z3) -> QArray:
    """<z1,z2><z2,z3><z3,z1>, as a 0-d QArray."""
    Z = QArray.from_columns([z1, z2, z3])
    return _words(Z, space.gram(Z), [(0, 1, 2)], TRIPLE).pick(0)


def angular_invariant(space: HermitianSpace, z1, z2, z3) -> float:
    """arccos(Re(-<z1,z2,z3>)/|<z1,z2,z3>|), in [0, pi]; lift-independent."""
    Z = QArray.from_columns([z1, z2, z3])
    return float(_angles(_words(Z, space.gram(Z), [(0, 1, 2)], TRIPLE))[0])


# the quaternion invariants in InvariantTuple.entries, in the order
# pair_invariants evaluates them, with the rank of each: one value, one
# per matched positive (alpha = X_{2k} over B's, beta = X_{4j} over A's,
# the etas), or the (n-2) x (n-2) grid X_{jk}
ENTRY_NAMES = (("X1", 0), ("X2", 0), ("X3", 0), ("alpha", 1), ("beta", 1),
               ("mixed", 2), ("eta_A", 1), ("eta_B", 1))


@dataclass
class InvariantTuple:
    """Invariants of a pair; the quaternion ones sit in one QArray,
    entries, laid out as ENTRY_NAMES says (see layout).  The projective
    points of each frame are the rows of an n x 2 complex array, the
    attracting lift first, then the positives."""
    field_tag: str
    real_trace_A: np.ndarray
    real_trace_B: np.ndarray
    angular: np.ndarray                 # A1, A2, A3
    entries: QArray
    projective_A: np.ndarray
    projective_B: np.ndarray
    matching_A: List[int] = field(default_factory=list)
    matching_B: List[int] = field(default_factory=list)

    def layout(self) -> Dict[str, np.ndarray]:
        """Name -> indices into entries, shaped like the invariant: (),
        (d,) or (d, d) for d = n - 2 matched positives on each side."""
        d = len(self.matching_A)
        ends = np.cumsum([d ** rank for _, rank in ENTRY_NAMES])
        return {name: np.arange(end - d ** rank, end).reshape((d,) * rank)
                for (name, rank), end in zip(ENTRY_NAMES, ends)}


def pair_invariants(space: HermitianSpace, fas, fbs, reports, tuples):
    """The list of invariant tuples of a stack of weakly non-singular
    pairs, from their frames, genericity reports and normalized tuples:
    every pairing is read from the Gram products of the normalized lifts
    and every invariant is one array expression over the whole stack.
    The eta invariant <p3,xj><p3,p4>^-1 <xj,p4><xj,xj>^-1 of an
    A-positive xj is the cross-ratio X(xj,p4,p3,xj); that of a
    B-positive xk is X(xk,p2,p1,xk).
    """
    size, n = len(fas), space.n
    P = QArray.stack([t.P for t in tuples])
    K = QArray.stack([t.gram for t in tuples])
    apos, bpos = range(4, n + 2), range(n + 2, 2 * n)
    rows = [(0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 2, 0)]
    rows += [(0, 1, 2, k) for k in bpos] + [(2, 3, 0, j) for j in apos]
    rows += [(2, k, 1, j) for j in apos for k in bpos]
    rows += [(j, 3, 2, j) for j in apos] + [(k, 1, 0, k) for k in bpos]
    entries = _words(P, K, rows, CROSS)
    angular = _angles(_words(P, K, [(0, 1, 2), (0, 1, 3), (1, 2, 3)],
                             TRIPLE))
    # the attracting lift and the positives of every frame, A's then B's
    points = projective_points(QArray.stack(
        [f.F for f in [*fas, *fbs]]).pick(Ellipsis, slice(-1)))
    return [InvariantTuple(
        field_tag=space.field,
        real_trace_A=fas[e].real_trace,
        real_trace_B=fbs[e].real_trace,
        entries=entries.pick(e),
        angular=angular[e],
        projective_A=points[e], projective_B=points[size + e],
        matching_A=list(reports[e].matching_A),
        matching_B=list(reports[e].matching_B)) for e in range(size)]


def sp1_orbit_equal(t1: InvariantTuple, t2: InvariantTuple,
                    tol: float = 1e-8) -> Optional[QArray]:
    """Unit mu conjugating every quaternion entry of t1 onto t2, or None
    (mu = 1 in complex mode, see hermitian.gauge).  The same mu carries
    the normalized Gram matrix of t1's pair onto that of t2's."""
    if t1.entries.shape != t2.entries.shape:
        return None
    return gauge(t1.field_tag, t1.entries, t2.entries, tol)
