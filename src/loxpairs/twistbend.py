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
one stable-letter rule, `_stable_letters`: t = S K, with S conjugating
the curve X to the inverse Y^-1 of its partner and K the twist-bend of
X, so t X t^-1 = Y^-1.  Only n = 3.

A `PantsGroup` holds its peripheral stack P = [A, B, (AB)^-1] and
the frames of P.  `pants_groups`, its one builder, classifies the
peripherals of all its pants as one stack and frames them as one, and
a conjugated pants forms (AB)^-1 from its conjugated A and B.  The
tree walk conjugates one edge at a time, since each alignment depends
on the one before it, and the conjugators S of all the handles come
from one `element_conjugator` call.  A stack raises at its earliest
failing gate: of two bad pants, or two bad handles, the one that fails
the earlier gate raises, and the first one on a tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateConfiguration, DegenerateInputError,
                     GraphInvalid, InconsistentProjectivePoints,
                     NotLoxodromic, VerificationFailed, WrongDimension)
from .gram import _normalize_quadruple
from .hermitian import HermitianSpace
from .invariants import CROSS, TRIPLE, _angles, _words
from .qmatrix import QArray, quaternionic_rank
from .spectral import (LoxodromicFrame, _class_values, classify_element,
                       eigen_frame, element_conjugator)

COMMUTE_TOL = 1e-9
POINT_TOL = 1e-7
COMPAT_TOL = 1e-7
# on genus-2 graphs of generate_pair seeds 0-19 (n = 3, both fields) the
# relation holds to 7.8e-7 with every edge written from pants 0, and
# misses by 1.1 or more with two edges written from pants 1
RELATION_TOL = 1e-4


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
    if any(np.shape(p) != (2,) for p in (kappa.k1, kappa.k2, kappa.k3)):
        raise InconsistentProjectivePoints(
            "twist-bend needs three points of two coordinates each")
    k = np.array([kappa.k1, kappa.k2, kappa.k3], dtype=complex)
    if not np.all(np.linalg.norm(k - frame.points, axis=1) <= POINT_TOL):
        raise InconsistentProjectivePoints(
            "twist-bend projective points do not agree with the frame")
    F, Finv = frame.F, frame.F.inverse()
    A = F @ QArray.diag(frame.eigenvalues) @ Finv
    # a huge t overflows K; the finiteness gate below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        K = F @ kappa.diagonal() @ Finv
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
    """A (0,3) group <A, B>, held as its peripheral stack P = [A, B,
    (AB)^-1] of shape (3, m, m) and their three frames; A and B are
    views of P.  pants_groups builds it."""
    space: HermitianSpace
    P: QArray
    frames: List[LoxodromicFrame] = field(repr=False)

    A = property(lambda self: self.P.pick(0))
    B = property(lambda self: self.P.pick(1))

    def conjugated(self, S: QArray) -> "PantsGroup":
        # carrying the frames over keeps large-norm conjugates away from
        # the spectral routines (conjugation does not move the spectrum)
        Sinv = S.inverse()
        return PantsGroup(self.space, _peripheral_stack(S @ self.A @ Sinv,
                                                        S @ self.B @ Sinv),
                          [f.conjugated(S) for f in self.frames])


def _peripheral_stack(A: QArray, B: QArray) -> QArray:
    """The peripherals [A, B, (AB)^-1] of <A, B>, as one (3, m, m) stack."""
    return QArray.stack([A, B, (A @ B).inverse()])


def pants_groups(space: HermitianSpace, pairs: Sequence[
        Tuple[QArray, QArray]]) -> List[PantsGroup]:
    """The pants groups <A, B> of every pair (A, B), the one builder of
    a PantsGroup.  Every matrix is checked before any product; the FL
    gate types pants whose frames would miss the relation, and it is
    the earlier gate, so all 3k peripherals are classified as one stack
    before they are framed as one.  A stack raises at its earliest
    failing gate."""
    if not pairs:
        return []
    for pair in pairs:
        for M in pair:
            space.check_matrices(M)
    Ps = QArray.stack([_peripheral_stack(A, B) for A, B in pairs])
    shape = (-1,) + Ps.shape[-2:]
    Ps = QArray(Ps.a.reshape(shape), Ps.b.reshape(shape))
    if not all(c.is_loxodromic for c in classify_element(space, Ps)):
        raise NotLoxodromic("peripheral element is not loxodromic")
    frames = eigen_frame(space, Ps)
    return [PantsGroup(space, Ps.pick(slice(i, i + 3)), frames[i:i + 3])
            for i in range(0, len(frames), 3)]


def _check_compatible(P: QArray, D: QArray):
    resid = (P - D.inverse()).max_abs()
    if resid > COMPAT_TOL * (1.0 + P.max_abs()):
        raise DegenerateInputError(
            f"boundary mismatch {resid:.3e} exceeds {COMPAT_TOL:.0e}")


def _stable_letters(space: HermitianSpace, X: QArray, Y: QArray,
                    kappas: Sequence[TwistBendParams],
                    frames: Sequence[LoxodromicFrame]) -> List[QArray]:
    """The handle-closing letters t_i = S_i K_i with t_i X_i t_i^-1 =
    Y_i^-1, for stacks X and Y (k, m, m): S_i conjugates X_i to Y_i^-1,
    all of them from one element_conjugator call, and K_i, the
    twist-bend kappas[i] of X_i's frame frames[i], commutes with X_i,
    so the relation is exact and the twist deforms only the transversal
    holonomy."""
    S = element_conjugator(space, X, Y.inverse())
    return [S.pick(i) @ twist_bend_element(kappa, frame)
            for i, (kappa, frame) in enumerate(zip(kappas, frames))]


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
    commutator product is the reported relation residual.  A residual
    above RELATION_TOL (or NaN) raises VerificationFailed: the glued
    letters do not represent the surface group.
    """
    np_, ne = len(pants), len(edges)
    if np_ < 2 or np_ % 2 or ne != (3 * np_ // 2) or len(kappas) != ne:
        raise GraphInvalid("need 2g-2 pants, 3g-3 edges, one twist per edge")
    genus = np_ // 2 + 1
    used = set()
    for (i, si, j, sj) in edges:
        for key in ((i, si), (j, sj)):
            if not (0 <= key[0] < np_ and 0 <= key[1] < 3) or key in used:
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
            P = aligned[a].P.pick(sa)
            S = element_conjugator(space, pants[b].P.pick(sb).inverse(), P)
            K = twist_bend_element(kappas[e], aligned[a].frames[sa])
            aligned[b] = pants[b].conjugated(K @ S)
            _check_compatible(P, aligned[b].P.pick(sb))
            tree.add(e)
            stack.append(b)
    if any(g is None for g in aligned):
        raise GraphInvalid("gluing graph is not connected")

    # the g non-tree edges (a connected graph of 2g-2 pants has 2g-3
    # tree edges) close the handles: stable letters t with
    # t X t^-1 = Y^-1 across the curve, all built as one stack;
    # eliminating the far-side generators turns the glued amalgam
    # relation into the standard commutator product, with handle
    # orientations alternating
    Xs, Ys, ks, fs = zip(*[
        (aligned[i].P.pick(si), aligned[j].P.pick(sj),
         kappas[e], aligned[i].frames[si])
        for e, (i, si, j, sj) in enumerate(edges) if e not in tree])
    letters = _stable_letters(space, QArray.stack(Xs), QArray.stack(Ys),
                              ks, fs)
    generators: Dict[str, QArray] = {}
    rel = QArray.eye(space.n + 1)
    for h, (X, t) in enumerate(zip(Xs, letters), 1):
        a, b = (X.inverse(), t) if h % 2 else (t, X)
        generators[f"a{h}"] = a
        generators[f"b{h}"] = b
        rel = rel @ a @ b @ a.inverse() @ b.inverse()
    residual = (rel - QArray.eye(space.n + 1)).max_abs()
    if not residual <= RELATION_TOL:    # NaN fails
        raise VerificationFailed(f"surface relation residual {residual:.3e} "
                                 f"exceeds {RELATION_TOL:.0e}")
    return SurfaceRepresentation(genus, generators, residual,
                                 parameter_count(space, genus))
