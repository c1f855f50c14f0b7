"""Spectral data of isometries: real trace coefficients, loxodromic
classification, and attracting/repelling eigen-frames.

All eigen-computations go through the complex embedding of the matrix.
Eigenvalue classes of a quaternionic matrix are labelled by their unique
complex representative with non-negative imaginary part.

`real_char_poly`, `classify_element` and `eigen_frame` take one matrix
or a stack (k, m, m) of them, and give a list for a stack;
`element_conjugator` takes two stacks and gives the stack of
conjugators.  A single matrix runs as a stack of one, on the same path.
Each numeric phase of `eigen_frame` runs once on the whole stack:

1. the complex forms (space.as_complex) and their Faddeev-LeVerrier
   coefficients, one row per element; the class count and simplicity
   come from one pass of the root stack over all of them: the
   companion-matrix roots of every element from one stacked eigvals,
   held row by row to one relative residual gate (aberth_roots, which
   takes no Aberth step and marks a failed row NaN), and one split test
   per row (cluster_roots: do two roots lie within their Newton
   distances to a multiple root);
2. one LAPACK eig of the complex forms, whose upper half-plane
   eigenvalues represent the classes, one bordered-Newton step of
   mixed-precision refinement for every pair (the residual is formed in
   extended precision, the correction comes from one stacked LAPACK
   solve), and the eigenpair residuals;
3. the spectral gates, one array comparison each, and the normalization
   of the lifts, by array products on the stack of frame matrices F;
4. cond(F) and the reconstructions F D F^-1 of every frame, and the
   real traces of the frames that pass, from their class eigenvalues.

`real_char_poly`, `classify_element` and `eigen_frame` run their kernels
with floating-point exceptions ignored, so no warning gets out: an
overflow turns into inf or NaN, and NaN fails every gate.
A stack raises at the earliest gate, in pipeline order, that any of its
elements fails (`_gate`), and names the first element that fails it:
the error that element raises alone.  `polys` raises for no row: `_roots`
is the one place that turns a bad row of roots into NoConvergence.  The
one exception is a LAPACK failure in the stacked companion eigvals,
which does not name its matrix; the stack raises NoConvergence for it.
NoConvergence is a DegenerateInputError, like the error of every other
gate here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import (DegenerateSpectrum, LoxpairsError, NoConvergence,
                     NotIsometry, NotLoxodromic, PalindromeViolation,
                     RealEigenvalueClass)
from .hermitian import HermitianSpace
from .polys import (aberth_roots, cluster_roots, dickson_reduction,
                    discriminant, faddeev_leverrier)
from .qmatrix import QArray

PALINDROME_TOL = 1e-8
RESIDUAL_TOL = 1e-8
RADIUS_GUARD = 1e-7
CONJUGATOR_TOL = 1e-7


def real_char_poly(space: HermitianSpace, A: QArray,
                   tol: float = PALINDROME_TOL,
                   chi: Optional[np.ndarray] = None):
    """Real palindromic characteristic coefficients of the embedding.

    For an isometry the embedded characteristic polynomial is
    self-reciprocal with real coefficients; returns the full list
    [1, a1, ..., a_{n+1}, ..., a1, 1] of degree 2(n+1), or the list of
    them for a stack A (k, m, m).  chi, when the caller has it, is the
    characteristic polynomial of space.as_complex(A), one row per
    matrix of a stack.  tol must be positive.
    """
    if not tol > 0:  # NaN fails
        raise LoxpairsError(f"tol must be positive, got {tol!r}")
    space.check_matrices(A)
    with np.errstate(all="ignore"):
        gate = PALINDROME_TOL * (1.0 + A.moduli().max(axis=(-2, -1)) ** 2)
        _gate(np.atleast_1d(space.is_isometry(A, tol=gate)), NotIsometry,
              "matrix does not preserve the form")
        if chi is None:
            chi = faddeev_leverrier(space.as_complex(A))
        coeffs = np.atleast_2d(chi)
        if space.field == "complex":
            # the embedding of a complex matrix is A + conj(A)
            coeffs = np.array([np.polymul(c, np.conj(c)) for c in coeffs])
        dev = np.maximum(np.max(np.abs(coeffs.imag), axis=-1),
                         np.max(np.abs(coeffs - coeffs[:, ::-1]), axis=-1))
        _gate(dev <= tol * np.max(np.abs(coeffs), axis=-1),  # NaN fails
              PalindromeViolation, "coefficient symmetry violated by {:.3e}",
              dev)
        coeffs = 0.5 * (coeffs.real + coeffs.real[:, ::-1])
    return list(coeffs) if A.ndim == 3 else coeffs[0]


@dataclass
class ElementClass:
    is_loxodromic: bool
    delta: Optional[float]
    real_trace: np.ndarray
    reason: str = ""


def classify_element(space: HermitianSpace, A: QArray,
                     tol: float = PALINDROME_TOL):
    """Decide whether A is loxodromic, or each matrix of a stack A
    (k, m, m), which gives the list of their classes.

    Quaternionic mode uses the sign of -disc(g) for the reduced real
    polynomial g with chi(x) = x^{n+1} g(x + 1/x), together with
    g(2) != 0 != g(-2).  Complex mode inspects moduli of the actual
    eigenvalues, since distinct unit eigenvalue pairs e^{+-i phi} of a
    complex matrix collapse to a double root of g.  tol must be
    positive.
    """
    space.check_matrices(A)
    with np.errstate(all="ignore"):
        chi = faddeev_leverrier(space.as_complex(A))
        coeffs = np.array(real_char_poly(space, A, tol=tol, chi=chi),
                          ndmin=2)
        chi = np.atleast_2d(chi)
        if space.field == "quaternion":
            g = dickson_reduction(coeffs)
            delta = -discriminant(g)
            # g(2) and g(-2) by Horner
            g_at = np.zeros((len(g), 2))
            for c in g.T:
                g_at = g_at * [2.0, -2.0] + c[:, None]
            scale = np.max(np.abs(g), axis=-1)
            # disc is homogeneous of degree 2n in the coefficients of g
            delta_floor = tol * np.maximum(1.0, scale) ** (2 * space.n)
            reasons = np.where(
                ~(delta > delta_floor), "delta <= 0",        # NaN fails
                np.where(np.min(abs(g_at), axis=-1) <= tol * scale,
                         "real eigenvalue on the unit circle", ""))
            deltas = map(float, delta)
        else:
            roots = _roots(chi)
            reasons = np.where(
                np.max(abs(roots), axis=-1) <= 1.0 + RADIUS_GUARD,
                "no expanding eigenvalue",
                np.where(cluster_roots(chi, roots), "repeated eigenvalues",
                         ""))
            deltas = [None] * len(chi)
    classes = [ElementClass(not r, d, t, str(r)) for r, d, t in
               zip(reasons, deltas, coeffs[:, 1:space.n + 2])]
    return classes if A.ndim == 3 else classes[0]


def _polish_eigenpairs(M: np.ndarray, V: np.ndarray, lams: np.ndarray):
    """One bordered-Newton correction of every eigenpair (row V[i],
    lams[i]) of M, or of each M of a stack with its rows and values, by
    mixed-precision iterative refinement: the residual lams V - V M^T
    is formed in extended precision, the correction comes from one
    LAPACK solve of the stacked bordered systems in double, and is
    added in extended precision before rounding.  It pushes the
    eigenvector error below the eps * ||M|| floor that a
    double-precision eigensolver hits on conjugates with large entries.
    The pairs of a matrix stay as they are when one of its bordered
    systems is singular; the other matrices of a stack are still
    polished."""
    n = M.shape[-1]
    J = np.zeros(lams.shape + (n + 1, n + 1), dtype=complex)
    J[..., :n, :n] = M[..., None, :, :] - lams[..., None, None] * np.eye(n)
    J[..., :n, n] = -V
    J[..., n, :n] = np.conj(V)
    Vl = V.astype(np.clongdouble)
    L = lams.astype(np.clongdouble)
    rhs = np.zeros(lams.shape + (n + 1, 1), dtype=complex)
    rhs[..., :n, 0] = L[..., None] * Vl \
        - Vl @ np.swapaxes(M.astype(np.clongdouble), -1, -2)
    try:
        delta = np.linalg.solve(J, rhs)[..., 0]
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return V, lams
        polished = [_polish_eigenpairs(*x) for x in zip(M, V, lams)]
        return tuple(np.stack(x) for x in zip(*polished))
    Vl = Vl + delta[..., :n]
    Vl /= np.sqrt(np.sum(np.abs(Vl) ** 2, axis=-1))[..., None]
    return np.asarray(Vl, dtype=complex), np.asarray(L + delta[..., n],
                                                     dtype=complex)


def _eigenpairs(space: HermitianSpace, Mfull: np.ndarray):
    """Eigenvectors and polished eigenvalues, one per class, of every
    complex form (space.as_complex) of the stack Mfull: rows W[e, i],
    values lams[e, i], and the largest eigenpair residual of each
    matrix.

    One LAPACK eig of the stack gives every eigenpair.  The spectrum of
    the complex form is closed under conjugation, so its upper half
    holds the Im >= 0 representative of every class.  One Newton step on
    an extended-precision residual polishes these pairs.
    """
    evals, evecs = np.linalg.eig(Mfull)
    idx = np.argsort(-evals.imag, axis=-1)[:, :space.dim]
    W, lams = _polish_eigenpairs(
        Mfull,
        np.swapaxes(np.take_along_axis(evecs, idx[:, None, :], -1), -1, -2),
        np.take_along_axis(evals, idx, -1))
    # the embedding carries A v - v lam to Mfull w - lam w
    resid = np.linalg.norm(W @ np.swapaxes(Mfull, -1, -2)
                           - lams[..., None] * W, axis=-1)
    return W, lams, resid.max(axis=-1)


def _class_values(radius, theta, phis) -> np.ndarray:
    """The class eigenvalues (r e^{i theta}, e^{i phi_k}, e^{i theta}/r)
    of one frame, or one row per frame of a stack."""
    lam = np.exp(1j * theta)
    return np.concatenate([(radius * lam)[..., None], np.exp(1j * phis),
                           (lam / radius)[..., None]], axis=-1)


def _real_traces(E: np.ndarray) -> np.ndarray:
    """(a_1, ..., a_{n+1}) of every row of class eigenvalues E: the
    embedded characteristic polynomial is the product over the classes
    of (x - lam)(x - conj(lam)), expanded one root at a time for the
    whole stack."""
    roots = np.concatenate([E, np.conj(E)], axis=-1)
    c = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    c[..., 0] = 1.0
    for j in range(roots.shape[-1]):
        c[..., 1:j + 2] -= roots[..., j, None] * c[..., :j + 1]
    return c.real[..., 1:E.shape[-1] + 1]


@dataclass
class LoxodromicFrame:
    """The frame of a loxodromic element A = F D F^-1, held as the one
    matrix F, with D = diag(r e^{i theta}, e^{i phi_k}, e^{i theta}/r).

    The columns of F are (attracting, positives..., repelling): the
    null lifts of the attracting and repelling fixed points, normalized
    so <attracting, repelling> = 1, and the unit positive eigenvectors
    ordered by increasing eigenvalue angle.  F preserves the form, and
    every invariant is read off pairings of its columns; attracting
    and repelling are views of the first and the last.  real_trace is
    (a_1, ..., a_{n+1}) of the class eigenvalues, which eigen_frame
    computes for the whole stack.
    """
    radius: float
    theta: float
    phis: np.ndarray
    F: QArray
    space: HermitianSpace = field(repr=False)
    real_trace: np.ndarray = field(repr=False)

    attracting = property(lambda self: self.F.column(0))
    repelling = property(lambda self: self.F.column(-1))

    @property
    def eigenvalues(self) -> np.ndarray:
        return _class_values(self.radius, self.theta, self.phis)

    @cached_property
    def points(self) -> np.ndarray:
        """Projective points of the attracting lift, then the positives,
        as the rows of an n x 2 array."""
        return projective_points(self.F.pick(slice(None), slice(-1)))

    def conjugated(self, S: QArray) -> "LoxodromicFrame":
        """The frame of S A S^-1, for an isometry S (same spectrum)."""
        return LoxodromicFrame(self.radius, self.theta, self.phis,
                               S @ self.F, self.space, self.real_trace)

    def rebuild(self) -> QArray:
        return self.F @ QArray.diag(self.eigenvalues) @ self.F.inverse()

    @classmethod
    def stack(cls, space: HermitianSpace, radius, theta, phis,
              F: QArray) -> List["LoxodromicFrame"]:
        """The frames of the stack F (k, m, m) with the class data
        radius[i], theta[i], phis[i], and the real traces of their
        class eigenvalues, for the whole stack; eigen_frame and
        generate.random_loxodromic build every frame here."""
        traces = _real_traces(_class_values(np.asarray(radius),
                                            np.asarray(theta), phis))
        return [cls(float(radius[i]), float(theta[i]), phis[i], F.pick(i),
                    space, traces[i]) for i in range(len(traces))]


def _gate(ok: np.ndarray, exc, message: str, *values):
    """One gate over a stack, which element i passes where ok[i]: raise
    exc of message, formatted with the values of the first failing
    element, if any element fails."""
    failing = np.flatnonzero(~ok)
    if failing.size:
        i = int(failing[0])
        raise exc(message.format(*(v[i] for v in values)))


def _roots(chi: np.ndarray) -> np.ndarray:
    """The roots of every row of chi (aberth_roots), which marks a bad
    row NaN; the one place that raises NoConvergence for such a row."""
    roots = aberth_roots(chi)
    _gate(np.all(np.isfinite(chi), axis=-1), NoConvergence,
          "polynomial coefficients are not finite")
    _gate(~np.any(np.isnan(roots), axis=-1), NoConvergence,
          "companion roots fail the residual gate")
    return roots


def _simple_classes(space: HermitianSpace, chi: np.ndarray):
    """The class count of a stack whose complex forms have the
    characteristic polynomials chi, one row each: its gates fail an
    element whose coefficients are not finite, whose companion roots
    fail the residual gate, or which has not space.dim simple eigenvalue
    classes.  The companion roots and the split test run once on the
    stack: the classes are simple when there are space.dim class roots
    and no two of them are split copies of one multiple root."""
    roots = _roots(chi)
    if space.field == "quaternion":
        # classes come in conjugate pairs; keep Im >= 0 representatives
        roots = np.where(roots.imag >= -1e-12, roots, np.nan)
    _gate((np.count_nonzero(~np.isnan(roots), axis=-1) == space.dim)
          & ~cluster_roots(chi, roots), DegenerateSpectrum,
          "eigenvalue classes are not simple")


def _assemble(space: HermitianSpace, W: np.ndarray, lams: np.ndarray):
    """The frame data (radius, theta, phis, F) of every element of a
    stack from its class eigenpairs (rows W[e, i] in the complex form of
    space, eigenvalues lams[e, i]): one array comparison per gate, then
    the lifts normalized by array products."""
    tol = RADIUS_GUARD
    e = np.arange(len(lams))
    radii, angles = np.abs(lams), np.angle(lams)
    # attracting fixed point carries the eigenvalue class of modulus r < 1
    i_att, i_rep = np.argmin(radii, axis=-1), np.argmax(radii, axis=-1)
    att, rep = lams[e, i_att], lams[e, i_rep]
    _gate((radii[e, i_rep] > 1.0 + tol) & (radii[e, i_att] < 1.0 - tol),
          NotLoxodromic, "no attracting/repelling eigenvalue pair")
    if space.field == "quaternion":
        _gate(np.all(lams.imag >= -1e-9, axis=-1), DegenerateSpectrum,
              "class representative left the upper half plane")
        _gate(np.minimum(abs(att.imag), abs(rep.imag)) > tol * abs(att),
              RealEigenvalueClass, "attracting class meets the real axis")
        _gate(abs(rep / abs(rep) - att / abs(att)) <= 1e-6,
              DegenerateSpectrum, "attracting/repelling angles disagree")
    # frame order: attracting, the others by increasing angle, repelling
    key = angles.copy()
    key[e, i_att], key[e, i_rep] = -np.inf, np.inf
    order = np.argsort(key, axis=-1, kind="stable")
    unit = order[:, 1:-1]
    _gate(np.all(abs(np.take_along_axis(radii, unit, -1) - 1.0) <= tol, -1),
          DegenerateSpectrum, "non-unit intermediate eigenvalue")

    # row j of V is column j of the frame matrix
    V = space.from_complex(np.swapaxes(
        np.take_along_axis(W, order[..., None], 1), -1, -2)).transpose()
    g = space.inner(V.pick(slice(None), 0), V.pick(slice(None), -1))
    _gate(abs(g.b) <= 1e-7 * (1.0 + g.moduli()), DegenerateSpectrum,
          "attracting/repelling pairing has j part {:.3e}", abs(g.b))
    positives = V.pick(slice(None), slice(1, -1))
    nsq = space.inner(positives, positives).a.real
    _gate(np.all(nsq > 0, axis=-1), DegenerateSpectrum,
          "intermediate eigenvector is not positive")
    V = V.scale(np.pad(1.0 / np.sqrt(nsq), ((0, 0), (1, 1)),
                       constant_values=1.0)[..., None])
    # only complex rescalings keep the eigenvalue representatives intact
    rv = V.pick(slice(None), -1) * QArray(1.0 / np.conj(g.a[:, None]))
    V.a[:, -1], V.b[:, -1] = rv.a, rv.b
    return (radii[e, i_att], angles[e, i_att],
            np.take_along_axis(angles, unit, -1), V.transpose().copy())


def _frames(space: HermitianSpace, A: QArray) -> List[LoxodromicFrame]:
    """The frames of the stack A, every gate written so that NaN fails
    it; the first gate that any element fails raises (_gate)."""
    Mfull = space.as_complex(A)
    _simple_classes(space, faddeev_leverrier(Mfull))
    W, lams, resid = _eigenpairs(space, Mfull)
    # each gate scales with its own element
    amax = A.moduli().max(axis=(-2, -1))
    _gate(resid <= RESIDUAL_TOL * (1.0 + amax), DegenerateSpectrum,
          "eigenvector residual {:.3e}", resid)
    radius, theta, phis, F = _assemble(space, W, lams)
    E = _class_values(radius, theta, phis)
    # the inverse needs a nonsingular F; cond(F) of a frame that is not
    # finite counts as infinite
    Fe = F.embed()
    kappa = np.full(len(E), np.inf)
    finite = np.all(np.isfinite(Fe), axis=(-2, -1))
    kappa[finite] = np.linalg.cond(Fe[finite])
    _gate(np.isfinite(kappa), DegenerateSpectrum,
          "frame matrix condition {:.3e}", kappa)
    miss = (F @ QArray.diag(E) @ F.inverse() - A).moduli().max(
        axis=(-2, -1))
    # evaluation noise of F D F^-1 grows like eps * cond(F), so the gate
    # must not outpace what double precision can certify
    gate = (1.0 + amax) * np.maximum(RESIDUAL_TOL,
                                     20 * np.finfo(float).eps * kappa)
    _gate(miss <= gate, DegenerateSpectrum,
          "frame reconstruction residual {:.3e}", miss)
    return LoxodromicFrame.stack(space, radius, theta, phis, F)


def eigen_frame(space: HermitianSpace, A: QArray):
    """Spectral frame of a loxodromic isometry, or the list of frames of
    a stack A of shape (k, m, m), on the one path the module docstring
    describes: a stack raises at its earliest failing gate."""
    space.check_matrices(A)
    stack = A if A.ndim == 3 else QArray(A.a[None], A.b[None])
    with np.errstate(all="ignore"):
        frames = _frames(space, stack)
    return frames if A.ndim == 3 else frames[0]


def projective_points(V: QArray) -> np.ndarray:
    """Points of the complex projective line attached to the columns of
    V, one eigenvector each, as the rows of a k x 2 array; or one such
    array per matrix of a stack V.

    A column v determines (a_i : b_i) at its largest entry, which is
    invariant under the complex rescalings that preserve eigenvalue
    representatives.  Each row is a unit 2-vector whose largest
    component is positive real.
    """
    a, b = (x.reshape((-1,) + V.shape[-2:]) for x in (V.a, V.b))
    e, cols = np.arange(len(a))[:, None], np.arange(V.shape[-1])
    i = np.argmax(np.abs(a) ** 2 + np.abs(b) ** 2, axis=1)
    p = np.stack([a[e, i, cols], b[e, i, cols]], axis=-1)
    p = p / np.linalg.norm(p, axis=-1, keepdims=True)
    top = p[e, cols, np.argmax(np.abs(p), axis=-1)]
    p = p / (top / np.abs(top))[..., None]
    return p.reshape(V.shape[:-2] + p.shape[-2:])


def element_conjugator(space: HermitianSpace, X: QArray, Y: QArray) -> QArray:
    """A form-preserving S with S X S^{-1} = Y for loxodromics with the
    same eigenvalue data, or the stack of them, pair by pair, for stacks
    X and Y of shape (k, m, m); a single pair runs as a stack of one, on
    the same path.  One eigen_frame call frames X_0, Y_0, X_1, Y_1, ...,
    then the class-data gate and the residual gate run once each on the
    stack, so a stack raises at its earliest failing gate (_gate)."""
    for M in (X, Y):
        space.check_matrices(M)
    Xs, Ys = (M if M.ndim == 3 else QArray(M.a[None], M.b[None])
              for M in (X, Y))
    XY = QArray.stack([Xs, Ys], axis=1)
    shape = (-1,) + XY.shape[-2:]
    frames = eigen_frame(space, QArray(XY.a.reshape(shape),
                                       XY.b.reshape(shape)))
    data = np.array([[f.radius, f.theta, *f.phis] for f in frames])
    _gate(np.max(np.abs(data[0::2] - data[1::2]), axis=-1)
          <= CONJUGATOR_TOL, DegenerateSpectrum,
          "eigenvalue data of the two elements differ")
    Fx, Fy = (QArray.stack([f.F for f in frames[i::2]]) for i in (0, 1))
    S = Fy @ Fx.inverse()
    resid = (S @ Xs @ S.inverse() - Ys).moduli().max(axis=(-2, -1))
    _gate(resid <= CONJUGATOR_TOL * (1.0 + Ys.moduli().max(axis=(-2, -1))),
          DegenerateSpectrum, "conjugation residual {:.3e}", resid)
    return S if X.ndim == 3 else S.pick(0)
