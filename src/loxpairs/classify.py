"""Constructive conjugacy testing.

Two weakly non-singular pairs are conjugate exactly when their real
traces agree, their invariant tuples lie in one Sp(1) orbit, and the
conjugator reconstructed from the associated lifts carries the first
pair onto the second.  The gauge is solved once: the unit mu that
carries one invariant tuple onto the other also carries one normalized
Gram matrix onto the other, so the reconstruction C = P' P^{-1} maps
each lift p_i to p_i' mu, on a spanning sub-collection of the lifts.
Its correctness is always verified directly rather than assumed.

Also provides the congruence test for quadruples of boundary points and
a numerical rank probe of the invariant map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (DegenerateInputError, LoxpairsError, NotNonsingular,
                     VerificationFailed, WrongDimension)
from .genericity import genericity_report
from .gram import (AssociatedTuple, _normalize_quadruple, gram_matrix,
                   normalize_lifts)
from .hermitian import HermitianSpace, gauge
from .invariants import InvariantTuple, pair_invariants, sp1_orbit_equal
from .qmatrix import QArray, conjugate_by, quaternionic_rank
from .spectral import eigen_frame, projective_points

ORBIT_TOL = 1e-8
QUADRUPLE_TOL = 1e-7
REFINE_SWEEPS = 3
REFINE_FLOOR = 64
RANK_STEP = 1e-5
RANK_TOL = 1e-8


def _spanning_subset(P: QArray, size: int) -> List[int]:
    """Greedy prefix-priority choice of `size` H-independent columns of
    the lift matrix P.

    One unpivoted QR of the embedded candidates, the columns v and v j of
    each lift in prefix order, gives on a lift's two diagonal entries of
    R its distance from the span of the lifts before it.  The first lift
    whose distance does not pass RANK_TOL times the largest norm so far
    is dropped, and the candidates left are factored again.
    """
    idx = list(range(P.shape[1]))
    while len(idx) >= size:
        cand = idx[:size]
        W = P.pick(slice(None), cand).embed()
        # embed puts every v j after all the v; interleave them per lift
        W = W[:, np.arange(2 * size).reshape(2, size).T.ravel()]
        dist = np.abs(np.diagonal(np.linalg.qr(W, mode="r")))
        norm = np.maximum.accumulate(np.linalg.norm(W[:, ::2], axis=0))
        bad = np.flatnonzero(~(dist.reshape(size, 2).min(axis=1)
                               > RANK_TOL * norm))
        if not bad.size:
            return cand
        idx.remove(cand[bad[0]])
    raise DegenerateInputError("associated lifts do not span the space")


def _verified_congruence(space: HermitianSpace, basis: QArray,
                         images: QArray, P: QArray, Q: QArray,
                         tol: float) -> QArray:
    """C = images basis^-1, checked as an isometry and on every column p
    of P for C p = q, q the same column of Q."""
    C = images @ basis.inverse()
    scale = 1.0 + C.max_abs()
    if not space.is_isometry(C, tol=100 * tol * scale ** 2):
        raise VerificationFailed("reconstructed map is not an isometry")
    miss = (C @ P - Q).moduli().max(axis=0)
    if np.any(miss > 100 * tol * scale * (1.0 + P.moduli().max(axis=0))):
        raise VerificationFailed("reconstructed map misses a vector")
    return C


def congruence_from_tuples(t: AssociatedTuple, t2: AssociatedTuple,
                           mu: QArray, tol: float = ORBIT_TOL) -> QArray:
    """Form-preserving C with C(p_i) = p_i' mu for every lift, mu the
    unit that carries the invariants of t onto those of t2.

    Both tuples must pass the gram_matrix pattern gate.  C is
    reconstructed on a spanning set of columns of the lift matrix P, of
    the lifts followed by the two omitted positives, whose images are
    t2's own, not scaled by mu: a positive eigenvector is fixed only up
    to a complex unit, which does not move its eigenvalue.  C is then
    checked as an isometry, on every lift, and projectively on the two
    omitted vectors.
    """
    space = t.space
    gram_matrix([t, t2])            # the pattern gate of both
    m = 2 * space.n
    mus = QArray(np.append(np.full(m, mu.a), [1, 1]),
                 np.append(np.full(m, mu.b), [0, 0]))
    targets = t2.P * mus
    sel = _spanning_subset(t.P, space.n + 1)
    lifts = slice(None), slice(m)
    C = _verified_congruence(space, t.P.pick(slice(None), sel),
                             targets.pick(slice(None), sel),
                             t.P.pick(*lifts), targets.pick(*lifts), tol)
    both = QArray.stack([C @ t.P, t2.P])
    # for each omitted column k, column k of C P beside column k of P'
    pairs = QArray.stack([both.pick(Ellipsis, k).transpose()
                          for k in (m, m + 1)])
    if np.any(quaternionic_rank(pairs, tol=100 * tol) != 1):
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
    one column per real direction of D, in the layout of _delta and
    _flat, written in closed form.

    On the row-major vec(D), D -> D Y is R(Y) = kron(I, Y^T) and
    D -> Y D is L(Y) = kron(Y, I), both filled by index assignment.
    With X' = Xa + j Xb, each block of the map from the parts (Da, Db)
    of D to those of the image is z -> P z + Q conj(z): P = R(Xa) -
    L(Xa) from Da to the a-part, P = L(conj Xb) and Q = -R(Xb) from Db
    to the a-part, P = -L(Xb) and Q = R(Xb) from Da to the b-part, and
    P = R(Xa) - L(conj Xa) from Db to the b-part.  Over the complex
    numbers Xb = 0, and the first space.units m^2 rows and columns, the
    a-part, are R(X') - L(X'), as _flat keeps them.
    """
    m, k = space.dim, len(targets)
    X = QArray.stack(targets)
    i = np.arange(m)

    def right(Y):                   # entry (i k, i l) is Y[l, k]
        T = np.zeros((k,) + (m,) * 4, dtype=complex)
        T[:, i, :, i, :] = Y.swapaxes(-1, -2)
        return T.reshape(k, m * m, m * m)

    def left(Y):                    # entry (i k, j k) is Y[i, j]
        T = np.zeros((k,) + (m,) * 4, dtype=complex)
        T[:, :, i, :, i] = Y
        return T.reshape(k, m * m, m * m)

    def real(P, Q=0):
        """z -> P z + Q conj(z) on (Re z, Im z), as 2 x 2 real blocks."""
        S, T = P + Q, P - Q
        return [[S.real, -T.imag], [S.imag, T.real]]

    Ra = right(X.a)
    aa, ab = real(Ra - left(X.a)), real(left(np.conj(X.b)), -right(X.b))
    ba, bb = real(-left(X.b), right(X.b)), real(Ra - left(np.conj(X.a)))
    u = space.units * m * m         # over C, X.b = 0: the a-part alone
    M = np.block([aa[0] + ab[0], aa[1] + ab[1], ba[0] + bb[0],
                  ba[1] + bb[1]])[:, :u, :u]
    return M.reshape(-1, u)


def _lstsq_solver(space: HermitianSpace, M: np.ndarray):
    """b -> np.linalg.lstsq(M, b, rcond=None)[0] for the linearization M
    of a generic pair, from one factored Householder QR; None when M has
    a larger kernel than the centre.

    The kernel of D -> [D, X'] over a generic pair is the centre, u I
    for u in space.centre, which the minimum-norm solution is orthogonal
    to.  Appending the centre as rows, Re tr D = 0 and over the complex
    numbers Im tr D = 0, weighted to max |M| and with right-hand side 0,
    makes M full rank without moving that solution, so each solve
    applies Q^T in its factored form (LAPACK ormqr, Q is never formed)
    and makes one triangular solve.  An |R_ii| at or below lstsq's
    cutoff eps max(shape) max |R_jj| means the pair's centralizer is
    larger than the centre.
    """
    import scipy.linalg     # here, not at module level: it loads in ~0.26 s
    centre = np.stack([_flat(space, QArray(u * np.eye(space.dim)))
                       for u in space.centre])
    A = np.concatenate([M, np.max(np.abs(M)) * centre])
    (H, tau), R = scipy.linalg.qr(A, overwrite_a=True, mode="raw",
                                  check_finite=False)
    d = np.abs(np.diagonal(R))
    if not np.min(d) > np.finfo(float).eps * max(A.shape) * np.max(d):
        return None

    def solve(b):
        c = np.zeros((len(A), 1))
        c[:len(b), 0] = b
        c = scipy.linalg.lapack.dormqr("L", "T", H, tau, c, 1,
                                       overwrite_c=True)[0]
        return scipy.linalg.solve_triangular(R, c[:len(R), 0],
                                             check_finite=False)
    return solve


def _refine_conjugator(space: HermitianSpace, C: QArray, pairs):
    """Newton polish of C X C^-1 = X' over the given element pairs, and
    the residuals X' - C X C^-1 of the C it returns.

    Each sweep solves the linearization (I + D) C: D X' - X' D = E with
    E = X' - C X C^-1, jointly over all pairs, by real least squares.
    The linear map does not depend on C, so it is built and factored by
    one QR (_lstsq_solver) per call, and only when a sweep is needed.
    No sweep runs once the largest residual is at its rounding floor,
    REFINE_FLOOR eps (1 + max |X'|), and a sweep is kept only when it
    lowers the largest residual.  When the pairs' common centralizer is
    larger than the centre, C is returned unpolished: the caller's
    residual gate then decides.
    """
    def residuals(C):
        Cinv = C.inverse()
        return [Xp - C @ X @ Cinv for X, Xp in pairs]

    floor = REFINE_FLOOR * np.finfo(float).eps \
        * (1.0 + max(Xp.max_abs() for _, Xp in pairs))
    E = residuals(C)
    old = max(e.max_abs() for e in E)
    if old <= floor:
        return C, E
    solve = _lstsq_solver(space,
                          _linearization(space, [Xp for _, Xp in pairs]))
    if solve is None:
        return C, E
    for _ in range(REFINE_SWEEPS):
        x = solve(np.concatenate([_flat(space, e) for e in E]))
        C2 = (QArray.eye(space.dim) + _delta(space, x)) @ C
        E2 = residuals(C2)
        new = max(e.max_abs() for e in E2)
        if not new < old:  # NaN fails
            break
        C, E, old = C2, E2, new
        if old <= floor:
            break
    return C, E


@dataclass
class ConjugacyResult:
    conjugate: bool
    conjugator: Optional[QArray]
    stage: str
    residual: float


def conjugacy_test(space: HermitianSpace, A: QArray, B: QArray,
                   A2: QArray, B2: QArray, mode: str = "weak",
                   tol: float = 1e-7) -> ConjugacyResult:
    """Decide whether (A, B) and (A2, B2) are conjugate in the isometry
    group, producing the conjugator when they are.

    Detection order: real traces, then the invariant-tuple orbit, whose
    unit mu is the one Sp(1) gauge of the test, then the reconstruction
    from the lifts under mu, its Newton polish, and projective points.
    Over the complex numbers every projective point is (1, 0), so the
    points are compared over the quaternions only.  Matching invariants
    with a failed direct conjugation check raise VerificationFailed
    rather than passing silently.  mode is "weak" or "strong": strong
    mode decides as weak mode does, and raises NotNonsingular for a
    pair that is not non-singular.  tol must be positive.
    """
    if mode not in ("weak", "strong"):
        raise LoxpairsError(f"unknown mode {mode!r}")
    if not tol > 0:  # NaN fails
        raise LoxpairsError(f"tol must be positive, got {tol!r}")
    fa, fb, fa2, fb2 = eigen_frame(space, QArray.stack([A, B, A2, B2]))

    tr_resid = max(
        float(np.max(np.abs(fa.real_trace - fa2.real_trace))),
        float(np.max(np.abs(fb.real_trace - fb2.real_trace))))
    tr_scale = 1.0 + float(np.max(np.abs(np.concatenate(
        [fa.real_trace, fb.real_trace]))))
    if tr_resid > tol * tr_scale:
        return ConjugacyResult(False, None, "real-trace", tr_resid)

    # the pair stage runs once, over the stack of both pairs
    fas, fbs = [fa, fa2], [fb, fb2]
    reps = genericity_report(space, fas, fbs)
    if mode == "strong":
        if not all(rep.nonsingular for rep in reps):
            raise NotNonsingular("strong mode requires non-singular pairs")
    t1, t2 = tuples = normalize_lifts(space, reps)
    i1, i2 = pair_invariants(space, fas, fbs, reps, tuples)

    # the one Sp(1) gauge: the unit carrying i1 onto i2, which then
    # carries the lifts of t1 onto those of t2
    mu = sp1_orbit_equal(i1, i2, tol=tol)
    if mu is None:
        return ConjugacyResult(False, None, "tuple", float("nan"))

    C = congruence_from_tuples(t1, t2, mu, tol=min(tol, ORBIT_TOL))
    C, E = _refine_conjugator(space, C, [(A, A2), (B, B2)])
    if space.field == "quaternion":
        ptol = max(tol, 1e-7) * (1.0 + C.max_abs() ** 2)
        # C F is the frame of C A C^-1 exactly, so the point comparison
        # never depends on re-running the spectral machinery
        moved = projective_points((C @ QArray.stack([fa.F, fb.F])).pick(
            Ellipsis, slice(-1)))
        miss = moved - np.stack([i2.projective_A, i2.projective_B])
        if not np.all(np.linalg.norm(miss, axis=-1) <= ptol):
            return ConjugacyResult(False, None, "projective-points",
                                   float("nan"))

    # E holds A2 - C A C^-1 and B2 - C B C^-1, in conjugate_by's order
    resid = max(e.max_abs() for e in E)
    scale = 1.0 + max(A2.max_abs(), B2.max_abs())
    if not resid <= tol * scale:  # NaN fails
        raise VerificationFailed(
            f"invariants matched but conjugation residual {resid:.3e} "
            f"exceeds {tol * scale:.3e}")
    return ConjugacyResult(True, C, "verified", resid)


# -- quadruples of boundary points -----------------------------------------

def _quadruple_bases(space: HermitianSpace, S: QArray) -> QArray:
    """Square bases [Zb, Wb] for the stack S = [Z, W] (2, dim, k) of two
    quadruples: for k > dim the spanning columns of Z, as chosen for
    congruence_from_tuples, and the same of W; S for k = dim; else S and
    an H-orthonormal basis of the positive complement of its span, by one
    stacked Gram-Schmidt that keeps a column count per quadruple, so each
    takes the projector columns that pass on it."""
    dim, k = S.shape[-2:]
    if k > dim:
        return S.pick(Ellipsis, _spanning_subset(S.pick(0), dim))
    if k == dim:
        return S
    # column i is e_i - S M^-1 b with M = S^* H S and b = S^* H e_i
    R = QArray.eye(dim) - S @ (
        space.gram(S).inverse() @ (S.adjoint() @ QArray(space.H)))
    B = QArray.zeros(S.shape[:-1] + (dim,))
    B.a[..., :k], B.b[..., :k] = S.a, S.b
    filled = np.full(S.shape[0], k)
    for i in range(dim):
        v = R.pick(Ellipsis, i)
        # a column past a quadruple's count is still 0 and removes nothing
        for j in range(k, filled.max()):
            u = B.pick(Ellipsis, j)
            v = v - u * space.inner(v, u).pick(Ellipsis, None)
        nrm = space.inner(v, v).a.real
        take = np.flatnonzero((nrm > 1e-8) & (filled < dim))
        v = v.scale(1.0 / np.sqrt(np.where(nrm > 1e-8, nrm, 1.0))[..., None])
        B.a[take, :, filled[take]] = v.a[take]
        B.b[take, :, filled[take]] = v.b[take]
        filled[take] += 1
        if np.all(filled == dim):
            return B
    raise DegenerateInputError("could not extend to a full basis")


def boundary_quadruple_congruence(space: HermitianSpace, zs: List[QArray],
                                  ws: List[QArray]) -> Optional[QArray]:
    """Isometry h with h(z_i) = w_i projectively, for two quadruples of
    pairwise distinct boundary points, or None when their normalized
    pairings lie in different Sp(1) orbits."""
    # both quadruples as one stack, which raises what two calls would
    Z = QArray.stack([QArray.from_columns(zs), QArray.from_columns(ws)])
    if Z.shape[1:] != (space.dim, 4):
        raise WrongDimension(f"need 4 vectors of length {space.dim}, got "
                             f"{Z.shape[2]} of length {Z.shape[1]}")
    N, _, G = _normalize_quadruple(space, Z)
    upper = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])     # i < j
    mu = gauge(space.field, G.pick(0, *upper), G.pick(1, *upper),
               QUADRUPLE_TOL)
    if mu is None:
        return None
    # S = [Zn, Wn mu], one stack from the rank check to the bases
    S = QArray.stack([N.pick(0), N.pick(1) * mu])
    if np.any(quaternionic_rank(S) != min(4, space.dim)):
        raise DegenerateInputError(
            "quadruple does not span a rank-4 subspace")
    bases = _quadruple_bases(space, S)
    return _verified_congruence(space, bases.pick(0), bases.pick(1),
                                S.pick(0), S.pick(1), QUADRUPLE_TOL)


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


def _mat_exp(X: QArray) -> QArray:
    """e^X to third order, I + X + X^2/2 + X^3/6, for the steps h X of
    invariant_map_rank: at h = RANK_STEP on an orthonormal basis the
    remainder is about h^4/24, some 4e-22."""
    X2 = X @ X
    return QArray.eye(X.shape[-1]) + X + X2.scale(0.5) + (X2 @ X).scale(1 / 6)


def _invariant_vector(iv: InvariantTuple) -> np.ndarray:
    """The invariants of a tuple as one real vector."""
    # each point (u, v) as Re u, Re v, Im u, Im v
    pts = np.vstack([iv.projective_A, iv.projective_B])
    return np.concatenate([iv.real_trace_A, iv.real_trace_B, iv.angular,
                           iv.entries.components().ravel(),
                           np.hstack([pts.real, pts.imag]).ravel()])


def invariant_map_rank(space: HermitianSpace, A: QArray,
                       B: QArray) -> Tuple[int, float]:
    """Numerical rank of the invariant map at (A, B), restricted to a
    complement of the conjugation directions, plus the singular-value
    gap at the cut.  Central differences over the Lie-algebra chart
    (A e^(sX), B e^(uY)): the 4 dim G perturbed pairs are framed as one
    stack with (A, B) and run the pair stage once, and a step that
    changes the flag matching of (A, B) raises DegenerateInputError."""
    h = RANK_STEP
    basis = _isometry_algebra_basis(space)
    d = len(basis)
    steps = [_mat_exp(X.scale(s)) for X in basis for s in (h, -h)]
    frames = eigen_frame(space, QArray.stack(
        [A, B] + [A @ E for E in steps] + [B @ E for E in steps]))
    fa, fb, moved = frames[0], frames[1], frames[2:]
    fas = [fa] + moved[:2 * d] + [fa] * (2 * d)
    fbs = [fb] + [fb] * (2 * d) + moved[2 * d:]
    reps = genericity_report(space, fas, fbs)
    if any((r.matching_A, r.matching_B)
           != (reps[0].matching_A, reps[0].matching_B) for r in reps):
        raise DegenerateInputError("a rank-probe step changes the flag "
                                   "matching")
    invs = pair_invariants(space, fas, fbs, reps,
                           normalize_lifts(space, reps))
    v = np.stack([_invariant_vector(iv) for iv in invs[1:]], axis=1)
    J = (v[:, 0::2] - v[:, 1::2]) / (2 * h)

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
