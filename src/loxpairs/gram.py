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
to a stack of matrices of boundary points, the quadruples of
`classify.boundary_quadruple_congruence` and (as a stack of one) the
quadruple (a_A, r_A, a_B, K r_C) of `twistbend.tilde_invariants`, and
returns the rescaled lifts and their Gram product.  `normalize_lifts`
reads only the genericity report of each pair: its matchings, and the
Gram product K, frame vectors V and norms that `genericity_report`
formed as one product over the stack of pairs.  It takes the scalars
from K, builds P as one product of V and the scalars, and takes the
Gram product of the whole tuple as K rescaled by the scalars of its
lifts, so no second product is formed.
Both functions, and the pattern gate `gram_matrix`, take a stack; one
pair, tuple or quadruple runs as a stack of one.  Each gate is one
`spectral._gate` call over the whole stack, so a stack raises at the
earliest gate that any of its elements fails and names the first
element that fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateInputError, NormalizationImpossible,
                     NotWeaklyNonsingular, PatternViolation)
from .genericity import PairGenericityReport
from .hermitian import AT_INFINITY, HermitianSpace
from .qmatrix import QArray
from .spectral import _gate

INNER_TOL = 1e-10
PATTERN_TOL = 1e-8
VANISHING = "lift normalization meets a vanishing pairing"


@dataclass
class AssociatedTuple:
    space: HermitianSpace
    # columns p1 .. p_{2n}, then the omitted positives of A and of B, in
    # the order of the matchings of the pair's genericity report
    P: QArray
    gram: QArray                 # <p_i, p_j> is entry (j, i), i, j < 2n


def _rescaled_gram(K: QArray, s: QArray) -> QArray:
    """The Gram product of the lifts z_k s_k from K, the Gram product of
    the zs, or of each of a stack: conj(s_i) K_ij s_j."""
    return s.conj().pick(Ellipsis, None) * K * s.pick(Ellipsis, None,
                                                      slice(None))


def _unit_pairing(g: QArray, anchor_norm, norms):
    """Scalars c = conj(g^-1) = g / |g|^2 with <anchor, z c> = 1, one
    per pairing g = <anchor, z> along the last axis, and for each row
    whether every pairing passes its gate INNER_TOL |anchor| |z|, for
    the norms of the zs."""
    mods = g.moduli()
    ok = ~np.any(mods <= INNER_TOL * anchor_norm * norms, axis=-1)
    return g.scale(mods ** -2.0), ok


def _quadruple_scalars(space: HermitianSpace, K: QArray, norms: np.ndarray,
                       z1: QArray, anchor: str) -> QArray:
    """The right scalars s, four per row of a stack, that rescale lifts
    (z1, z2, z3, z4) to p_k = z_k s_k with
    <p1,p2> = <p1,p3> = <p1,p4> = 1 = |<p2,p3>|.

    Every pairing is read from K, the stack of Gram products of the zs,
    and the gates scale with their norms.  anchor="standard" takes p1
    positively proportional to the standard lift of z1 (last coordinate
    1); anchor="none" keeps the direction of z1 (used to exhibit the
    global-unit gauge freedom).
    """
    if anchor == "standard":
        _gate(~space.at_infinity(z1), DegenerateInputError, AT_INFINITY)
        c = z1.pick(Ellipsis, space.n).reciprocal()
    else:
        c = QArray(np.ones(len(z1.a)))
    g23 = K.pick(Ellipsis, 1, 2).moduli()
    _gate(~(g23 <= INNER_TOL * norms[:, 2] * norms[:, 1]),
          NormalizationImpossible, VANISHING)
    # a = z1 c pairs with z_k as <z1, z_k> c; |<p2,p3>| = 1 fixes the
    # positive factor t of p1 = a t, and <p1, z> = <a, z> t
    g = K.pick(Ellipsis, [1, 2, 3], 0) * c.pick(Ellipsis, None)
    u, ok = _unit_pairing(g, (norms[:, 0] * c.moduli())[:, None],
                          norms[:, 1:])
    _gate(ok, NormalizationImpossible, VANISHING)
    mods = g.moduli()
    t = np.sqrt(g23 / (mods[:, 0] * mods[:, 1]))[:, None]
    return QArray(np.concatenate([c.a[:, None] * t, u.a / t], axis=-1),
                  np.concatenate([c.b[:, None] * t, u.b / t], axis=-1))


def _normalize_quadruple(space: HermitianSpace, Z: QArray):
    """The columns (z1, z2, z3, z4) of each matrix of the stack Z
    (k, m, 4) rescaled by _quadruple_scalars (the standard anchor) to
    the columns (p1, p2, p3, p4) of Z s, with the stacks of the scalars
    s and of the Gram products of the ps, conj(s_i) K_ij s_j for K that
    of the zs."""
    K = space.gram(Z)
    with np.errstate(all="ignore"):
        s = _quadruple_scalars(space, K, np.linalg.norm(Z.moduli(), axis=-2),
                               Z.pick(Ellipsis, 0), "standard")
    return Z * s.pick(Ellipsis, None, slice(None)), s, _rescaled_gram(K, s)


def normalize_lifts(space: HermitianSpace, report,
                    anchor: str = "standard"):
    """The normalized associated tuple of the weakly non-singular pair
    of a genericity report, or the list of tuples of a sequence of
    reports; a single report runs as a stack of one.

    The fixed-point lifts (a_A, r_A, a_B, r_B) take the scalars s of
    _quadruple_scalars with the given anchor; the matched positive
    eigenvectors are then rescaled to pair to 1 with p3 (A's) and p1
    (B's).  Every pairing comes from the report's Gram product K of both
    frames, with <p_k, x> = <z_k, x> s_k for the quadruple's scalars s,
    and so does the tuple's own Gram product, conj(S_i) K_ij S_j for the
    scalars S of all 2n lifts.  P is the one product of the report's
    frame vectors V and S, padded by 1 for the two omitted positives.
    Each pair's matching picks its frame vectors and pairings by one
    index array over the stack.  A stack raises at the earliest gate
    that any of its pairs fails, naming the first pair that fails it.
    """
    single = isinstance(report, PairGenericityReport)
    if single:
        report = [report]
    n = space.n
    _gate(np.array([r.weakly_nonsingular for r in report]),
          NotWeaklyNonsingular, "pair fails genericity: {}",
          [r.failing_conditions for r in report])
    K, V, norms = (QArray.stack([r.frame_gram[0] for r in report]),
                   QArray.stack([r.frame_gram[1] for r in report]),
                   np.stack([r.frame_gram[2] for r in report]))
    # per pair, the frame vectors of p1 .. p_{2n} and the omitted ones
    cols = np.array([[0, 1, n + 1, n + 2] + [2 + j for j in r.matching_A]
                     + [n + 3 + k for k in r.matching_B]
                     + [2 + r.omitted_A, n + 3 + r.omitted_B]
                     for r in report])
    quad, idx = cols[0, :4], cols[:, 4:2 * n]
    e = np.arange(len(report))[:, None]
    slot = np.repeat([2, 0], n - 2)                 # anchors p3 and p1
    with np.errstate(all="ignore"):
        s = _quadruple_scalars(
            space, K.pick(slice(None), *np.ix_(quad, quad)), norms[:, quad],
            V.pick(Ellipsis, 0), anchor)
        g = K.pick(e, idx, quad[slot]) * s.pick(slice(None), slot)
        c, ok = _unit_pairing(g, norms[:, quad[slot]] * s.moduli()[:, slot],
                              norms[e, idx])
    _gate(ok, NormalizationImpossible, VANISHING)
    # p_k = v_k S_k for the frame vectors v at cols, S_k = 1 for the
    # omitted positives
    S = QArray(np.ones(cols.shape, dtype=complex))
    S.a[:, :4], S.a[:, 4:2 * n] = s.a, c.a
    S.b[:, :4], S.b[:, 4:2 * n] = s.b, c.b
    rows = np.arange(space.dim)[:, None]
    P = V.pick(e[:, :, None], rows, cols[:, None, :]) \
        * S.pick(slice(None), None)
    lifts = cols[:, :2 * n]
    G = _rescaled_gram(K.pick(e[:, :, None], lifts[:, :, None],
                              lifts[:, None, :]),
                       S.pick(slice(None), slice(2 * n)))
    tuples = [AssociatedTuple(space, P.pick(i), G.pick(i))
              for i in range(len(report))]
    return tuples[0] if single else tuples


@lru_cache(maxsize=None)
def _pattern(n: int):
    """The values the normalization pins in a 2n x 2n Gram matrix (0 or
    1, NaN elsewhere), and the mask of the pairings <p4, x_j> and
    <p2, x_k> it needs to be nonzero, one in each column from the
    fifth."""
    E = np.full((2 * n, 2 * n), np.nan)
    E[range(4), range(4)] = 0
    E[0, 1:4] = 1
    for block, zero, one in ((range(4, n + 2), [0, 1], 2),
                             (range(n + 2, 2 * n), [2, 3], 0)):
        for j in block:
            E[zero, j], E[one, j] = 0, 1
            E[j, j + 1:block.stop] = 0
    live = np.zeros(E.shape, dtype=bool)
    live[3, 4:n + 2] = live[1, n + 2:] = True
    E.setflags(write=False)
    live.setflags(write=False)
    return E, live


def gram_matrix(t):
    """The 2n x 2n QArray of pairings G[i, j] = <p_i, p_j> of a tuple,
    or their (k, 2n, 2n) stack for a sequence of tuples, the pattern of
    all of them checked by one masked array comparison per gate.  A
    sequence raises at the earliest gate that any of its tuples fails,
    naming the first tuple that fails it."""
    single = isinstance(t, AssociatedTuple)
    ts = [t] if single else list(t)
    n, k, tol = ts[0].space.n, len(ts), PATTERN_TOL
    G = QArray.stack([x.gram for x in ts]).transpose()
    E, live = _pattern(n)
    # the unpinned entries compare NaN > tol, which is False
    bad = (G - QArray(E)).moduli() > tol
    i, j = np.unravel_index(np.argmax(bad.reshape(k, -1), axis=-1), E.shape)
    w, x, y, z = G.components()[np.arange(k), i, j].T
    _gate(~bad.any(axis=(-2, -1)), PatternViolation,
          "entry g[{},{}] = [{}, {}, {}, {}], expected [{}, 0.0, 0.0, 0.0]",
          i + 1, j + 1, w, x, y, z, E[i, j])
    mods = G.moduli()
    _gate(~(np.abs(mods[:, 1, 2] - 1.0) > tol), PatternViolation,
          "|g23| = {}, expected 1", mods[:, 1, 2])
    # the first vanishing pairing by column, one per column
    vanish = (mods <= tol) & live
    j, i = np.unravel_index(np.argmax(
        vanish.swapaxes(-1, -2).reshape(k, -1), axis=-1), E.shape)
    _gate(~vanish.any(axis=(-2, -1)), PatternViolation,
          "g[{},{}] vanishes", i + 1, j + 1)
    return G.pick(0) if single else G
