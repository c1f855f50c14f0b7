"""Constructive conjugacy testing.

Two weakly non-singular pairs are conjugate exactly when their real
traces agree, the Sp(1) orbits of their normalized Gram matrices agree,
and the conjugator reconstructed from the matched Gram data carries the
first pair onto the second.  The reconstruction C = P' P^{-1} uses a
spanning sub-collection of the associated lifts; its correctness is
always verified directly rather than assumed.

Also provides the congruence test for quadruples of boundary points and
a numerical rank probe of the invariant map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (DegenerateInputError, NotNonsingular,
                     VerificationFailed)
from .genericity import genericity_report
from .gram import (AssociatedTuple, _normalize_quadruple, gram_matrix,
                   gram_offdiagonal_entries, normalize_lifts)
from .hermitian import HermitianSpace, gauge
from .invariants import InvariantTuple, pair_invariants, sp1_orbit_equal
from .qmatrix import QArray, conjugate_by, quaternionic_rank
from .quat import Quaternion
from .spectral import (LoxodromicFrame, eigen_frame,
                       projective_points_equal)

ORBIT_TOL = 1e-8


def _gram_orbit_scalar(t: AssociatedTuple, t2: AssociatedTuple,
                       tol: float) -> Optional[Quaternion]:
    """Unit mu with mu*G*conj(mu) = G' entrywise, or None."""
    e1 = gram_offdiagonal_entries(gram_matrix(t))
    e2 = gram_offdiagonal_entries(gram_matrix(t2))
    return gauge(t.space.field, zip(e1, e2), tol)


def _spanning_subset(lifts: List[QArray], size: int) -> List[int]:
    """Greedy prefix-priority choice of `size` H-independent lifts."""
    sel: List[int] = []
    basis: List[QArray] = []
    for i, p in enumerate(lifts):
        if len(sel) == size:
            break
        if quaternionic_rank([*basis, p]) > len(sel):
            sel.append(i)
            basis.append(p)
    if len(sel) < size:
        raise DegenerateInputError("associated lifts do not span the space")
    return sel


def _verified_congruence(space: HermitianSpace, basis: List[QArray],
                         images: List[QArray], pairs,
                         tol: float) -> QArray:
    """C = P' P^-1 with P, P' the columns basis, images, checked as an
    isometry and on every (p, q) in pairs for C p = q."""
    C = QArray.from_columns(images) @ QArray.from_columns(basis).inverse()
    scale = 1.0 + C.max_abs()
    if not space.is_isometry(C, tol=100 * tol * scale ** 2):
        raise VerificationFailed("reconstructed map is not an isometry")
    P, Q = (QArray.from_columns(vs) for vs in zip(*pairs))
    miss = (C @ P - Q).moduli().max(axis=0)
    if np.any(miss > 100 * tol * scale * (1.0 + P.moduli().max(axis=0))):
        raise VerificationFailed("reconstructed map misses a vector")
    return C


def congruence_from_tuples(t: AssociatedTuple, t2: AssociatedTuple,
                           tol: float = ORBIT_TOL) -> Optional[QArray]:
    """Form-preserving C with C(p_i) = p_i' (mu-adjusted) for every lift.

    Returns None when the Sp(1) orbits of the two normalized Gram
    matrices differ.  When they match, C is reconstructed on a spanning
    sub-collection, then checked as an isometry, on every lift, and
    projectively on the two omitted vectors.
    """
    space = t.space
    mu = _gram_orbit_scalar(t, t2, tol)
    if mu is None:
        return None
    targets = [p.rmul(mu) for p in t2.lifts]
    sel = _spanning_subset(t.lifts, space.n + 1)
    C = _verified_congruence(space, [t.lifts[i] for i in sel],
                             [targets[i] for i in sel],
                             zip(t.lifts, targets), tol)
    for om, om2 in zip((t.omitted_A, t.omitted_B),
                       (t2.omitted_A, t2.omitted_B)):
        if quaternionic_rank([C @ om, om2], tol=100 * tol) != 1:
            raise VerificationFailed(
                "reconstructed map misses an omitted lift projectively")
    return C


def _delta(space: HermitianSpace, x: np.ndarray) -> QArray:
    """An m x m matrix over the field of space from its real coordinates
    (Re a, Im a, then Re b, Im b over the quaternions), or a stack of
    them from one coordinate vector per row of x."""
    mm = space.dim ** 2
    shape = x.shape[:-1] + (space.dim, space.dim)
    return QArray(*[(x[..., k:k + mm] + 1j * x[..., k + mm:k + 2 * mm])
                    .reshape(shape) for k in range(0, x.shape[-1], 2 * mm)])


def _flat(space: HermitianSpace, R: QArray) -> np.ndarray:
    """Real coordinates of a matrix, or of each matrix in a stack, in the
    layout _delta reads: space.units blocks, so no b-block over the
    complex numbers."""
    a = R.a.reshape(R.shape[:-2] + (-1,))
    b = R.b.reshape(R.shape[:-2] + (-1,))
    return np.concatenate([a.real, a.imag, b.real, b.imag][:space.units],
                          axis=-1)


def _linearization(space: HermitianSpace, targets) -> np.ndarray:
    """Real matrix of D -> (D X' - X' D) over every X' in targets, with
    one column per real direction of D."""
    basis = _delta(space, np.eye(space.units * space.dim ** 2))
    return np.concatenate([_flat(space, basis @ Xp - Xp @ basis).T
                           for Xp in targets])


def _lstsq_solver(M: np.ndarray):
    """b -> np.linalg.lstsq(M, b, rcond=None)[0], from one thin SVD of M
    with lstsq's cutoff: singular values at most eps max(M.shape) s_1
    count as zero."""
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    r = np.sum(sv > np.finfo(float).eps * max(M.shape) * sv[0])
    return lambda b: Vt[:r].T @ ((U[:, :r].T @ b) / sv[:r])


def _refine_conjugator(space: HermitianSpace, C: QArray, pairs,
                       sweeps: int = 3) -> QArray:
    """Newton polish of C X C^-1 = X' over the given element pairs.

    Each sweep solves the linearization (I + D) C: D X' - X' D = E with
    E = X' - C X C^-1, jointly over all pairs, by real least squares.
    The linear map does not depend on C, so it is built and factored
    once.
    """
    solve = _lstsq_solver(_linearization(space, [Xp for _, Xp in pairs]))

    def residuals(C):
        Cinv = C.inverse()
        return [Xp - C @ X @ Cinv for X, Xp in pairs]

    E = residuals(C)
    old = max(e.max_abs() for e in E)
    for _ in range(sweeps):
        x = solve(np.concatenate([_flat(space, e) for e in E]))
        C2 = (QArray.eye(space.dim) + _delta(space, x)) @ C
        E2 = residuals(C2)
        new = max(e.max_abs() for e in E2)
        if new >= old:
            break
        C, E, old = C2, E2, new
    return C


@dataclass
class ConjugacyResult:
    conjugate: bool
    conjugator: Optional[QArray]
    stage: str
    residual: float


def _points_match(f: LoxodromicFrame, g: LoxodromicFrame,
                  tol: float) -> bool:
    return all(projective_points_equal(p, q, tol=tol)
               for p, q in zip(f.points(), g.points()))


def _reduced_match(i1: InvariantTuple, i2: InvariantTuple,
                   tol: float) -> bool:
    """Complex strong mode: the short list X1, X2, A, alpha, beta."""
    if abs(i1.angular[0] - i2.angular[0]) > tol:
        return False
    e1, e2 = i1.reduced_entries(), i2.reduced_entries()
    return all(a.isclose(b, tol=tol * max(1.0, abs(a)))
               for a, b in zip(e1, e2))


def conjugacy_test(space: HermitianSpace, A: QArray, B: QArray,
                   A2: QArray, B2: QArray, mode: str = "weak",
                   tol: float = 1e-7) -> ConjugacyResult:
    """Decide whether (A, B) and (A2, B2) are conjugate in the isometry
    group, producing the conjugator when they are.

    Detection order: real traces, then the invariant-tuple orbit, then
    reconstruction plus projective points.  Matching invariants with a
    failed direct conjugation check raise VerificationFailed rather
    than passing silently.
    """
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    fa2, fb2 = eigen_frame(space, A2), eigen_frame(space, B2)

    tr_resid = max(
        float(np.max(np.abs(fa.real_trace - fa2.real_trace))),
        float(np.max(np.abs(fb.real_trace - fb2.real_trace))))
    tr_scale = 1.0 + float(np.max(np.abs(fa.real_trace)))
    if tr_resid > tol * tr_scale:
        return ConjugacyResult(False, None, "real-trace", tr_resid)

    rep1 = genericity_report(space, fa, fb)
    rep2 = genericity_report(space, fa2, fb2)
    if mode == "strong":
        if not (rep1.nonsingular and rep2.nonsingular):
            raise NotNonsingular("strong mode requires non-singular pairs")
    t1 = normalize_lifts(space, fa, fb, report=rep1)
    t2 = normalize_lifts(space, fa2, fb2, report=rep2)
    i1 = pair_invariants(space, fa, fb, report=rep1, tuple_=t1)
    i2 = pair_invariants(space, fa2, fb2, report=rep2, tuple_=t2)

    if mode == "strong" and space.field == "complex":
        matched = _reduced_match(i1, i2, tol)
    else:
        matched = sp1_orbit_equal(i1, i2, tol=tol) is not None \
            and float(np.max(np.abs(i1.angular - i2.angular))) <= tol
    if not matched:
        return ConjugacyResult(False, None, "tuple", float("nan"))

    C = congruence_from_tuples(t1, t2, tol=min(tol, ORBIT_TOL))
    if C is None:
        return ConjugacyResult(False, None, "tuple", float("nan"))

    C = _refine_conjugator(space, C, [(A, A2), (B, B2)])
    Ac, Bc = conjugate_by(C, A), conjugate_by(C, B)
    ptol = max(tol, 1e-7) * (1.0 + C.max_abs() ** 2)
    # fa.conjugated(C) is the frame of C A C^-1 exactly, so the point
    # comparison never depends on re-running the spectral machinery
    if not (_points_match(fa.conjugated(C), fa2, ptol)
            and _points_match(fb.conjugated(C), fb2, ptol)):
        return ConjugacyResult(False, None, "projective-points",
                               float("nan"))

    resid = max((Ac - A2).max_abs(), (Bc - B2).max_abs())
    scale = 1.0 + max(A2.max_abs(), B2.max_abs())
    if resid > tol * scale:
        raise VerificationFailed(
            f"invariants matched but conjugation residual {resid:.3e} "
            f"exceeds {tol * scale:.3e}")
    return ConjugacyResult(True, C, "verified", resid)


# -- quadruples of boundary points -----------------------------------------

def _orthogonal_complement(space: HermitianSpace,
                           vectors: List[QArray]) -> List[QArray]:
    """H-orthonormal basis of the complement of span(vectors); the
    complement must be positive definite."""
    k = len(vectors)
    S = QArray.from_columns(vectors)
    # column i is e_i - S M^-1 b with M = S^* H S and b = S^* H e_i
    R = QArray.eye(space.dim) - S @ (
        space.gram(vectors).inverse() @ (S.adjoint() @ QArray(space.H)))
    out: List[QArray] = []
    for i in range(space.dim):
        v = R.column(i)
        for u in out:
            v = v - u.rmul(space.inner(v, u))
        nrm = space.norm_sq(v)
        if nrm <= 1e-8:
            continue
        out.append(v.scale(1.0 / np.sqrt(nrm)))
        if len(out) == space.n + 1 - k:
            break
    if len(out) < space.n + 1 - k:
        raise DegenerateInputError("could not extend to a full basis")
    return out


def boundary_quadruple_congruence(space: HermitianSpace, zs: List[QArray],
                                  ws: List[QArray],
                                  tol: float = 1e-7) -> Optional[QArray]:
    """Isometry h with h(z_i) = w_i projectively, for two quadruples of
    pairwise distinct boundary points, or None when their normalized
    pairings lie in different Sp(1) orbits."""
    zn, _ = _normalize_quadruple(space, zs)
    wn, _ = _normalize_quadruple(space, ws)
    Gz, Gw = space.gram(zn), space.gram(wn)
    upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    mu = gauge(space.field, [(Gz.entry(i, j), Gw.entry(i, j))
                             for i, j in upper], tol)
    if mu is None:
        return None
    wt = [w.rmul(mu) for w in wn]

    if quaternionic_rank(zn) != min(4, space.n + 1) \
            or quaternionic_rank(wt) != min(4, space.n + 1):
        raise DegenerateInputError(
            "quadruple does not span a rank-4 subspace")
    zb, wb = list(zn), list(wt)
    if space.n + 1 > 4:
        zb += _orthogonal_complement(space, zn)
        wb += _orthogonal_complement(space, wt)
    return _verified_congruence(space, zb, wb, zip(zn, wt), tol)


# -- numerical rank of the invariant map -----------------------------------

def _isometry_algebra_basis(space: HermitianSpace) -> List[QArray]:
    """Real basis of the isometry Lie algebra {X : X* H + H X = 0,
    Im tr X = 0}, from one null-space solve over the real chart of
    _delta.  The trace is read on space.as_complex(X): the condition
    cuts u(n,1) down to su(n,1) and holds on all of sp(n,1)."""
    E = _delta(space, np.eye(space.units * space.dim ** 2))
    H = QArray(space.H)
    tr = np.trace(space.as_complex(E), axis1=-2, axis2=-1)
    L = np.concatenate([_flat(space, E.adjoint() @ H + H @ E),
                        tr.imag[:, None]], axis=1).T
    _, sv, Vt = np.linalg.svd(L)
    return [_delta(space, x) for x in Vt[np.sum(sv > 1e-10 * sv[0]):]]


def _mat_exp(space: HermitianSpace, X: QArray) -> QArray:
    from scipy.linalg import expm
    return space.from_complex(expm(space.as_complex(X)))


def _invariant_vector(space: HermitianSpace, A: QArray, B: QArray,
                      report=None) -> np.ndarray:
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    iv = pair_invariants(space, fa, fb, report=report)
    parts = [iv.real_trace_A, iv.real_trace_B, iv.angular]
    parts += [q.to_array() for q in iv.quaternion_entries()]
    for p in iv.projective_A + iv.projective_B:
        parts.append(np.concatenate([p.real, p.imag]))
    return np.concatenate(parts)


def invariant_map_rank(space: HermitianSpace, A: QArray, B: QArray,
                       h: float = 1e-5) -> Tuple[int, float]:
    """Numerical rank of the invariant map at (A, B), restricted to a
    complement of the conjugation directions, plus the singular-value
    gap at the cut.  Central differences over the Lie-algebra chart
    (A e^(sX), B e^(uY))."""
    basis = _isometry_algebra_basis(space)
    d = len(basis)
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    rep = genericity_report(space, fa, fb)

    cols = []
    for slot in range(2):
        for X in basis:
            Ep = _mat_exp(space, X.scale(h))
            Em = _mat_exp(space, X.scale(-h))
            if slot == 0:
                vp = _invariant_vector(space, A @ Ep, B, report=rep)
                vm = _invariant_vector(space, A @ Em, B, report=rep)
            else:
                vp = _invariant_vector(space, A, B @ Ep, report=rep)
                vm = _invariant_vector(space, A, B @ Em, report=rep)
            cols.append((vp - vm) / (2 * h))
    J = np.stack(cols, axis=1)

    # conjugation directions in the same chart
    flat = np.stack([_flat(space, X) for X in basis], axis=1)
    K = []
    for G in (A, B):
        Ginv = G.inverse()
        dG = np.stack([_flat(space, conjugate_by(Ginv, X) - X)
                       for X in basis], axis=1)
        K.append(np.linalg.lstsq(flat, dG, rcond=None)[0])
    Q, _ = np.linalg.qr(np.concatenate(K))
    P = np.eye(2 * d) - Q @ Q.T
    return _rank_cut(np.linalg.svd(J @ P, compute_uv=False), max(J.shape))


def _rank_cut(sv: np.ndarray, dim: int) -> Tuple[int, float]:
    """Numerical rank from descending singular values: the cut at the
    largest ratio sv[i] / sv[i+1] whose upper value lies above the noise
    floor dim * eps * sv[0], and that ratio."""
    sv = sv[sv > 0]
    ratios = sv[:-1] / sv[1:]
    floor = dim * np.finfo(float).eps * sv[0]
    ratios[sv[:-1] <= floor] = 0.0
    cut = int(np.argmax(ratios))
    return cut + 1, float(ratios[cut])
