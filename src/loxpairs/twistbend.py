"""Twist-bend deformations and gluing of (0,3) groups.

A twist-bend for a loxodromic A = Q E(r, theta, phi1, phi2) Q^{-1} is
K = Q E(t, psi, xi1, xi2) Q^{-1}, sharing A's eigenvectors and hence
commuting with A.  Its ten real parameters are (t, psi, xi1, xi2)
together with three projective points, which for a twist-bend are
pinned to those of A and are therefore validated, not free.
`twist_bend_element` builds K from kappa and A's frame, and
`tilde_invariants` reads (X~1, X~2, X~3, A~1, A~3) off a built K.

Assembly attaches (0,3) groups along compatible boundary components
(peripheral of one = inverse peripheral of the other), conjugating the
far side of each curve of a spanning tree of the pants graph by the
curve's twist-bend, and closes the handles.  Every handle is closed by
one stable-letter rule, `_stable_letter`: t = S K, with S conjugating
the curve X to the inverse Y^-1 of its partner and K the twist-bend of
X, so t X t^-1 = Y^-1.  Only n = 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateInputError,
                     GraphInvalid, InconsistentProjectivePoints,
                     NotLoxodromic, WrongDimension)
from .gram import _normalize_quadruple
from .hermitian import HermitianSpace
from .invariants import CROSS, TRIPLE, _angles, _words
from .qmatrix import QArray, conjugate_by, quaternionic_rank
from .spectral import (LoxodromicFrame, _class_values, classify_element,
                       eigen_frame, element_conjugator)

COMMUTE_TOL = 1e-9
POINT_TOL = 1e-7
COMPAT_TOL = 1e-7


@dataclass
class TwistBendParams:
    """kappa = (t, psi, xi1, xi2, k1, k2, k3); t > 0, angles in [-pi, pi],
    k_i points on the eigensphere CP^1."""
    t: float
    psi: float
    xi1: float
    xi2: float
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray

    def diagonal(self) -> QArray:
        return QArray.diag(_class_values(self.t, self.psi,
                                         np.array([self.xi1, self.xi2])))


def identity_params(frame: LoxodromicFrame) -> TwistBendParams:
    """The trivial twist-bend of A's gluing curve (K = identity)."""
    return TwistBendParams(1.0, 0.0, 0.0, 0.0, *frame.points)


def twist_bend_element(kappa: TwistBendParams,
                       frame: LoxodromicFrame) -> QArray:
    """K oriented consistently with the framed loxodromic A."""
    space = frame.space
    if space.n != 3:
        raise WrongDimension("twist-bends are defined for n = 3 only")
    if kappa.t <= 0:
        raise DegenerateConfiguration("twist-bend needs t > 0")
    k = np.array([kappa.k1, kappa.k2, kappa.k3], dtype=complex)
    if not np.all(np.linalg.norm(k - frame.points, axis=1) <= POINT_TOL):
        raise InconsistentProjectivePoints(
            "twist-bend projective points do not agree with the frame")
    A = frame.rebuild()
    # a huge t overflows K; the finiteness gate below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        K = frame.F @ kappa.diagonal() @ frame.F.inverse()
        resid = (K @ A - A @ K).max_abs()
        bound = COMMUTE_TOL * (1.0 + A.max_abs()) * (1.0 + K.max_abs())
    if not (np.isfinite(bound) and resid <= bound):  # overflow, NaN fail
        raise DegenerateConfiguration(
            f"twist-bend overflows or fails to commute: residual {resid:.3e}")
    return K


def tilde_invariants(space: HermitianSpace, K: QArray,
                     fa: LoxodromicFrame, fb: LoxodromicFrame,
                     fc: LoxodromicFrame) -> Tuple[QArray, QArray, QArray,
                                                   float, float]:
    """(X~1, X~2, X~3, A~1, A~3) of the twist-bend K of A, built by
    twist_bend_element, relative to <A, B, C>; the X~ are 0-d QArrays.

    Requires that a_B and r_C stay off the proper totally geodesic
    subspace through a_A and r_A (rank-3 condition on lifts).
    """
    aA, rA = fa.attracting, fa.repelling
    aB, rC = fb.attracting, fc.repelling
    if np.any(quaternionic_rank(QArray.stack(
            [QArray.from_columns([aA, rA, x]) for x in (aB, rC)])) < 3):
        raise DegenerateConfiguration(
            "configuration lies on a proper totally geodesic subspace")
    # gauge-fix the quadruple so the angular invariants are well defined
    # (residual freedom is one global unit, a similarity on everything)
    # g indices: 0 = a_A, 1 = r_A, 2 = a_B, 3 = K r_C
    Z, _, G = (x.pick(0) for x in _normalize_quadruple(space, QArray.stack(
        [QArray.from_columns([aA, rA, aB, K @ rC])])))
    X = _words(Z, G, [(0, 1, 2, 3), (0, 3, 2, 1), (1, 3, 2, 0)], CROSS)
    A1, A3 = _angles(_words(Z, G, [(0, 1, 3), (1, 3, 2)], TRIPLE))
    return X.pick(0), X.pick(1), X.pick(2), float(A1), float(A3)


# -- pants groups and gluing -----------------------------------------------

@dataclass
class PantsGroup:
    """A (0,3) group <A, B> with loxodromic peripherals A, B, (AB)^-1."""
    space: HermitianSpace
    A: QArray
    B: QArray
    frames: List[LoxodromicFrame] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self.frames:
            Ps = self.peripherals()
            # the FL gate types pants whose frames would miss the
            # relation; it is the earlier gate, so all three peripherals
            # are classified before they are framed as one stack
            for P in Ps:
                if not classify_element(self.space, P).is_loxodromic:
                    raise NotLoxodromic("peripheral element is not loxodromic")
            self.frames = eigen_frame(self.space, QArray.stack(Ps))

    def peripherals(self) -> List[QArray]:
        return [self.A, self.B, (self.A @ self.B).inverse()]

    def conjugated(self, S: QArray) -> "PantsGroup":
        # carrying the frames over keeps large-norm conjugates away from
        # the spectral routines (conjugation does not move the spectrum)
        return PantsGroup(self.space, conjugate_by(S, self.A),
                          conjugate_by(S, self.B),
                          [f.conjugated(S) for f in self.frames])


def _check_compatible(P: QArray, D: QArray):
    resid = (P - D.inverse()).max_abs()
    if resid > COMPAT_TOL * (1.0 + P.max_abs()):
        raise DegenerateInputError(
            f"boundary mismatch {resid:.3e} exceeds {COMPAT_TOL:.0e}")


def _stable_letter(space: HermitianSpace, X: QArray, Y: QArray,
                   kappa: TwistBendParams, frame: LoxodromicFrame) -> QArray:
    """The handle-closing letter t = S K with t X t^-1 = Y^-1: S
    conjugates X to Y^-1 and K, the twist-bend of X's frame, commutes
    with X, so the relation is exact and the twist deforms only the
    transversal holonomy."""
    return element_conjugator(space, X, Y.inverse()) @ \
        twist_bend_element(kappa, frame)


# -- surface assembly ------------------------------------------------------

@dataclass
class SurfaceRepresentation:
    genus: int
    generators: Dict[str, QArray]
    relation_residual: float
    parameter_count: int


def parameter_count(space: HermitianSpace, genus: int) -> int:
    """Real parameters of a genus-g assembly: each of the 2g-2 pants
    carries a full conjugacy datum, one per dimension of the group; the
    g handle closings each remove ten (quaternionic) or five (complex)
    parameters and the g twist-bends restore them, so the count is the
    pants data alone."""
    return space.group_dim * (2 * genus - 2)


def assemble_surface_representation(
        space: HermitianSpace, pants: Sequence[PantsGroup],
        edges: Sequence[Tuple[int, int, int, int]],
        kappas: Sequence[TwistBendParams]) -> SurfaceRepresentation:
    """Glue 2g-2 pants along 3g-3 curves into a genus-g representation.

    edges are (pants_i, slot_i, pants_j, slot_j); every slot is used
    exactly once and each edge carries one twist-bend.  A spanning tree
    of the pants graph aligns all pants in one frame; the g non-tree
    edges close handles, contributing generator pairs (a, b) whose
    commutator product is the reported relation residual.
    """
    np_, ne = len(pants), len(edges)
    if np_ < 2 or np_ % 2 or ne != (3 * np_ // 2) or len(kappas) != ne:
        raise GraphInvalid("need 2g-2 pants, 3g-3 edges, one twist per edge")
    genus = np_ // 2 + 1
    used = set()
    for (i, si, j, sj) in edges:
        for key in ((i, si), (j, sj)):
            if key[0] >= np_ or not 0 <= key[1] < 3 or key in used:
                raise GraphInvalid(f"bad or reused slot {key}")
            used.add(key)

    # spanning tree walk, conjugating every pants into pants 0's frame
    adj: Dict[int, List[int]] = {i: [] for i in range(np_)}
    for e, (i, _, j, _) in enumerate(edges):
        adj[i].append(e)
        adj[j].append(e)
    aligned: List[Optional[PantsGroup]] = [None] * np_
    aligned[0] = pants[0]
    tree = set()
    stack = [0]
    while stack:
        i = stack.pop()
        for e in adj[i]:
            a, sa, b, sb = edges[e]
            if a != i:
                a, sa, b, sb = b, sb, a, sa
            if aligned[b] is not None:
                continue
            P = aligned[a].peripherals()[sa]
            D = pants[b].peripherals()[sb]
            S = element_conjugator(space, D.inverse(), P)
            K = twist_bend_element(kappas[e], aligned[a].frames[sa])
            aligned[b] = pants[b].conjugated(K @ S)
            _check_compatible(P, conjugate_by(K @ S, D))
            tree.add(e)
            stack.append(b)
    if any(g is None for g in aligned):
        raise GraphInvalid("gluing graph is not connected")

    # non-tree edges close the g handles: stable letters t with
    # t X t^-1 = Y^-1 across the curve; eliminating the far-side
    # generators turns the glued amalgam relation into the standard
    # commutator product, with handle orientations alternating
    generators: Dict[str, QArray] = {}
    rel = QArray.eye(space.n + 1)
    h = 0
    for e, (i, si, j, sj) in enumerate(edges):
        if e in tree:
            continue
        h += 1
        X = aligned[i].peripherals()[si]
        Y = aligned[j].peripherals()[sj]
        t = _stable_letter(space, X, Y, kappas[e], aligned[i].frames[si])
        a, b = (X.inverse(), t) if h % 2 else (t, X)
        generators[f"a{h}"] = a
        generators[f"b{h}"] = b
        rel = rel @ a @ b @ a.inverse() @ b.inverse()
    if h != genus:
        raise GraphInvalid(f"expected {genus} handles, found {h}")
    residual = (rel - QArray.eye(space.n + 1)).max_abs()
    return SurfaceRepresentation(genus, generators, residual,
                                 parameter_count(space, genus))
