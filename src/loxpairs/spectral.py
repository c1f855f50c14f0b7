"""Spectral data of isometries: real trace coefficients, loxodromic
classification, and attracting/repelling eigen-frames.

All eigen-computations go through the complex embedding of the matrix.
Eigenvalue classes of a quaternionic matrix are labelled by their unique
complex representative with non-negative imaginary part.

`eigen_frame` takes one matrix or a stack (k, m, m) of them; a single
matrix runs as a stack of one, on the same path.  Each numeric phase
runs once on the whole stack:

1. the complex forms (space.as_complex) and their Faddeev-LeVerrier
   coefficients; per element, the class count and simplicity come from
   the companion-matrix roots, checked and polished by Aberth, and
   clustered within each root's Newton distance to a multiple root;
2. one LAPACK eig of the balanced matrices, whose upper half-plane
   eigenvalues represent the classes, one bordered-Newton step of
   mixed-precision refinement for every pair (the residual is formed in
   extended precision, the correction comes from one stacked LAPACK
   solve), and the eigenpair residuals;
3. per element, the spectral gates and the normalization of the lifts;
4. cond(F) and the reconstructions F D F^-1 of every frame.

`real_char_poly`, `classify_element` and `eigen_frame` run their kernels
with floating-point exceptions ignored, so no warning gets out: an
overflow turns into inf or NaN, and NaN fails every gate.
A stack raises what the loop over its elements would raise: the first
failing gate of the first failing element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np
import scipy.linalg

from .errors import (DegenerateSpectrum, NotIsometry, NotLoxodromic,
                     PalindromeViolation, RealEigenvalueClass)
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
                   chi: Optional[np.ndarray] = None) -> np.ndarray:
    """Real palindromic characteristic coefficients of the embedding.

    For an isometry the embedded characteristic polynomial is
    self-reciprocal with real coefficients; returns the full list
    [1, a1, ..., a_{n+1}, ..., a1, 1] of degree 2(n+1).  chi, when the
    caller has it, is the characteristic polynomial of
    space.as_complex(A).
    """
    with np.errstate(all="ignore"):
        gate = PALINDROME_TOL * (1.0 + A.max_abs() ** 2)
        if not space.is_isometry(A, tol=gate):
            raise NotIsometry("matrix does not preserve the form")
        if chi is None:
            chi = faddeev_leverrier(space.as_complex(A))
        coeffs = chi
        if space.field == "complex":
            # the embedding of a complex matrix is A + conj(A)
            coeffs = np.polymul(chi, np.conj(chi))
        dev = max(float(np.max(np.abs(coeffs.imag))),
                  float(np.max(np.abs(coeffs - coeffs[::-1]))))
        if not dev <= tol * float(np.max(np.abs(coeffs))):  # NaN fails
            raise PalindromeViolation(
                f"coefficient symmetry violated by {dev:.3e}")
        return 0.5 * (coeffs.real + coeffs.real[::-1])


@dataclass
class ElementClass:
    is_loxodromic: bool
    delta: Optional[float]
    real_trace: np.ndarray
    reason: str = ""


def classify_element(space: HermitianSpace, A: QArray,
                     tol: float = PALINDROME_TOL) -> ElementClass:
    """Decide whether A is loxodromic.

    Quaternionic mode uses the sign of -disc(g) for the reduced real
    polynomial g with chi(x) = x^{n+1} g(x + 1/x), together with
    g(2) != 0 != g(-2).  Complex mode inspects moduli of the actual
    eigenvalues, since distinct unit eigenvalue pairs e^{+-i phi} of a
    complex matrix collapse to a double root of g.
    """
    with np.errstate(all="ignore"):
        chi = faddeev_leverrier(space.as_complex(A))
        coeffs = real_char_poly(space, A, tol=tol, chi=chi)
        tr = coeffs[1:space.n + 2]
        if space.field == "quaternion":
            g = dickson_reduction(coeffs)
            delta = -discriminant(g)
            g2 = float(np.polyval(g, 2.0))
            gm2 = float(np.polyval(g, -2.0))
            scale = float(np.max(np.abs(g)))
            # disc is homogeneous of degree 2n in the coefficients of g
            delta_floor = tol * max(1.0, scale) ** (2 * space.n)
            if not delta > delta_floor:  # NaN fails
                return ElementClass(False, delta, tr, "delta <= 0")
            if min(abs(g2), abs(gm2)) <= tol * scale:
                return ElementClass(False, delta, tr,
                                    "real eigenvalue on the unit circle")
            return ElementClass(True, delta, tr)
        roots = aberth_roots(chi)
        radii = np.sort(np.abs(roots))
        if radii[-1] <= 1.0 + RADIUS_GUARD:
            return ElementClass(False, None, tr, "no expanding eigenvalue")
        centers, _ = cluster_roots(chi, roots)
        if centers.size < space.n + 1:
            return ElementClass(False, None, tr, "repeated eigenvalues")
        return ElementClass(True, None, tr)


def _balance_scaling(mag: np.ndarray) -> np.ndarray:
    """Diagonal scaling d with D^-1 A D of roughly balanced row/column
    norms, from the entry moduli mag = |a| + |b| of A; the eigenvector
    error floor is eps * ||A||, so conjugates with large entries need
    this before the eigensolver."""
    if mag.max() <= 100.0:
        # moderate entries gain nothing, and rescaling perturbs the
        # accuracy profile of well-scaled frames
        return np.ones(mag.shape[0])
    _, (d, _) = scipy.linalg.matrix_balance(mag, permute=False,
                                            separate=True)
    return d


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


def _eigenpairs(space: HermitianSpace, A: QArray, Mfull: np.ndarray):
    """Eigenvectors and polished eigenvalues, one per class, of every
    matrix of the stack A, whose complex forms (space.as_complex) are
    Mfull: rows W[e, i] in that complex form, values lams[e, i], and the
    largest eigenpair residual of each matrix.

    One LAPACK eig of the balanced stack gives every eigenpair.  The
    spectrum of the complex form is closed under conjugation, so its
    upper half holds the Im >= 0 representative of every class.  One
    Newton step on an extended-precision residual polishes these pairs.
    """
    # the embedding repeats every row of A, so its scaling repeats d
    d = np.stack([np.tile(_balance_scaling(mag), Mfull.shape[-1] // space.dim)
                  for mag in np.abs(A.a) + np.abs(A.b)])
    M = Mfull * d[:, None, :] / d[:, :, None]
    evals, evecs = np.linalg.eig(M)
    idx = np.argsort(-evals.imag, axis=-1)[:, :space.dim]
    W, lams = _polish_eigenpairs(
        M, np.swapaxes(np.take_along_axis(evecs, idx[:, None, :], -1), -1, -2),
        np.take_along_axis(evals, idx, -1))
    W = W * d[:, None, :]
    W /= np.linalg.norm(W, axis=-1)[..., None]
    # the embedding carries A v - v lam to Mfull w - lam w
    resid = np.linalg.norm(W @ np.swapaxes(Mfull, -1, -2)
                           - lams[..., None] * W, axis=-1)
    return W, lams, resid.max(axis=-1)


@dataclass
class LoxodromicFrame:
    """Attracting/repelling fixed-point lifts and positive eigenvectors.

    attracting and repelling are null lifts normalized so
    <attracting, repelling> = 1; positives are unit positive vectors
    ordered by increasing eigenvalue angle.  frame_matrix has columns
    (attracting, positives..., repelling) and preserves the form;
    A = frame_matrix @ diag(r e^{i theta}, e^{i phi_k}, e^{i theta}/r)
    @ frame_matrix^{-1}.
    """
    radius: float
    theta: float
    phis: np.ndarray
    attracting: QArray
    repelling: QArray
    positives: List[QArray]
    space: HermitianSpace = field(repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        lam = self.radius * np.exp(1j * self.theta)
        return np.concatenate([[lam], np.exp(1j * self.phis),
                               [np.exp(1j * self.theta) / self.radius]])

    @cached_property
    def real_trace(self) -> np.ndarray:
        """(a_1, ..., a_{n+1}) from the known eigenvalue classes, once
        per frame: the embedded characteristic polynomial is the product
        over classes of (x - lam)(x - conj(lam))."""
        lams = self.eigenvalues
        chi = np.real(np.poly(np.concatenate([lams, np.conj(lams)])))
        return chi[1:lams.size + 1]

    def frame_matrix(self) -> QArray:
        return QArray.from_columns([self.attracting, *self.positives,
                                    self.repelling])

    def diagonal(self) -> QArray:
        return QArray.diag(self.eigenvalues)

    def points(self) -> List[np.ndarray]:
        """Projective points of the attracting lift, then of the
        positive eigenvectors."""
        return list(projective_points(QArray.from_columns(
            [self.attracting, *self.positives])))

    def conjugated(self, S: QArray) -> "LoxodromicFrame":
        """The frame of S A S^-1, for an isometry S (same spectrum)."""
        return LoxodromicFrame(self.radius, self.theta, self.phis.copy(),
                               S @ self.attracting, S @ self.repelling,
                               [S @ p for p in self.positives], self.space)

    def rebuild(self) -> QArray:
        C = self.frame_matrix()
        return C @ self.diagonal() @ C.inverse()


def _simple_classes(space: HermitianSpace, chi: np.ndarray):
    """Raise unless the characteristic polynomial chi of an element's
    complex form has space.dim simple eigenvalue classes."""
    roots = aberth_roots(chi)
    if space.field == "quaternion":
        # classes come in conjugate pairs; keep Im >= 0 representatives
        roots = roots[roots.imag >= -1e-12]
    _, mults = cluster_roots(chi, roots)
    if np.any(mults > 1) or mults.size != space.dim:
        raise DegenerateSpectrum("eigenvalue classes are not simple")


def _norms_sq(space: HermitianSpace, X: QArray) -> np.ndarray:
    """<x, x> of every row x of X, by the arithmetic of space.inner."""
    return np.real(np.sum(np.conj(X.a) * (X.a @ space.H), axis=-1)
                   + np.sum(np.conj(X.b) * (X.b @ space.H), axis=-1))


def _assemble(space: HermitianSpace, W: np.ndarray,
              centers: np.ndarray) -> LoxodromicFrame:
    """The frame of one element from its class eigenpairs (rows of W in
    the complex form of space, eigenvalues centers): the spectral gates,
    then the normalization of the lifts."""
    tol = RADIUS_GUARD
    radii = np.abs(centers)
    # attracting fixed point carries the eigenvalue class of modulus r < 1
    i_att = int(np.argmin(radii))
    i_rep = int(np.argmax(radii))
    if not (radii[i_rep] > 1.0 + tol and radii[i_att] < 1.0 - tol):
        raise NotLoxodromic("no attracting/repelling eigenvalue pair")
    lam_att = centers[i_att]
    lam_rep = centers[i_rep]
    if space.field == "quaternion":
        if not np.all(centers.imag >= -1e-9):
            raise DegenerateSpectrum(
                "class representative left the upper half plane")
        if not min(abs(lam_att.imag), abs(lam_rep.imag)) > tol * abs(lam_att):
            raise RealEigenvalueClass("attracting class meets the real axis")
        if not abs(lam_rep / abs(lam_rep) - lam_att / abs(lam_att)) <= 1e-6:
            raise DegenerateSpectrum("attracting/repelling angles disagree")
    unit_idx = [i for i in range(centers.size) if i not in (i_att, i_rep)]
    if not np.all(np.abs(radii[unit_idx] - 1.0) <= tol):
        raise DegenerateSpectrum("non-unit intermediate eigenvalue")
    unit_idx.sort(key=lambda i: np.angle(centers[i]))
    theta = float(np.angle(lam_att))
    r = float(radii[i_att])

    a = space.from_complex(W[i_att])
    rv = space.from_complex(W[i_rep])
    positives = [space.from_complex(W[i]) for i in unit_idx]
    phis = np.array([float(np.angle(centers[i])) for i in unit_idx])

    # only complex rescalings keep the eigenvalue representatives intact
    g = space.inner(a, rv)
    if not abs(g.b) <= 1e-7 * (1.0 + g.moduli()):
        raise DegenerateSpectrum(
            f"attracting/repelling pairing has j part {abs(g.b):.3e}")
    rv = rv * QArray(1.0 / np.conj(g.a))
    nsq = _norms_sq(space, QArray.stack(positives))
    if not np.all(nsq > 0):
        raise DegenerateSpectrum("intermediate eigenvector is not positive")
    positives = [x.scale(t) for x, t in zip(positives, 1.0 / np.sqrt(nsq))]
    return LoxodromicFrame(r, theta, phis, a, rv, positives, space)


def _passing(count: int, check, error):
    """(i, its exception) for the first i < count at which check(i)
    raises, else (count, error)."""
    for i in range(count):
        try:
            check(i)
        except Exception as exc:
            return i, exc
    return count, error


def _cut(ok: np.ndarray, error, message):
    """(i, DegenerateSpectrum(message(i))) for the first i with ok[i]
    false, else (len(ok), error)."""
    failing = np.flatnonzero(~ok)
    if not failing.size:
        return ok.size, error
    i = int(failing[0])
    return i, DegenerateSpectrum(message(i))


def _frames(space: HermitianSpace, A: QArray):
    """The frames of the stack A and the exception the serial loop over
    its elements would raise, or None.

    The live elements are always a prefix of the stack: an element that
    fails a gate drops out with every element after it, and its
    exception stands unless an earlier element fails a later gate.
    Every gate is written so that NaN fails it.
    """
    Mfull = space.as_complex(A)
    chi = faddeev_leverrier(Mfull)
    end, error = _passing(A.shape[0],
                          lambda i: _simple_classes(space, chi[i]), None)
    if not end:
        return [], error
    A = A.pick(slice(end))
    W, lams, resid = _eigenpairs(space, A, Mfull[:end])
    # each gate scales with its own element
    amax = A.moduli().max(axis=(-2, -1))
    end, error = _cut(resid <= RESIDUAL_TOL * (1.0 + amax), error,
                      lambda i: f"eigenvector residual {resid[i]:.3e}")
    frames = []
    end, error = _passing(
        end, lambda i: frames.append(_assemble(space, W[i], lams[i])), error)
    if not end:
        return [], error
    # the inverse needs a nonsingular F; cond(F) of a frame that is not
    # finite counts as infinite
    F = QArray.stack([f.frame_matrix() for f in frames])
    Fe = F.embed()
    kappa = np.full(end, np.inf)
    finite = np.all(np.isfinite(Fe), axis=(-2, -1))
    kappa[finite] = np.linalg.cond(Fe[finite])
    end, error = _cut(np.isfinite(kappa), error,
                      lambda i: f"frame matrix condition {kappa[i]:.3e}")
    if not end:
        return [], error
    F, A = F.pick(slice(end)), A.pick(slice(end))
    D = QArray.zeros(F.shape)
    diag = np.arange(space.dim)
    D.a[:, diag, diag] = [f.eigenvalues for f in frames[:end]]
    miss = (F @ D @ F.inverse() - A).moduli().max(axis=(-2, -1))
    # evaluation noise of F D F^-1 grows like eps * cond(F), so the gate
    # must not outpace what double precision can certify
    gate = (1.0 + amax[:end]) * np.maximum(
        RESIDUAL_TOL, 20 * np.finfo(float).eps * kappa[:end])
    end, error = _cut(miss <= gate, error,
                      lambda i: f"frame reconstruction residual {miss[i]:.3e}")
    return frames[:end], error


def eigen_frame(space: HermitianSpace, A: QArray):
    """Spectral frame of a loxodromic isometry, or the list of frames of
    a stack A of shape (k, m, m).

    A single matrix runs as a stack of one, on the same path.  No
    floating-point warning gets out, NaN fails every gate, and a stack
    raises what the loop over its elements would: the first failing
    gate of the first failing element.
    """
    stack = A if A.ndim == 3 else QArray(A.a[None], A.b[None])
    with np.errstate(all="ignore"):
        frames, error = _frames(space, stack)
    if error is not None:
        raise error
    return frames if A.ndim == 3 else frames[0]


def projective_points(V: QArray) -> np.ndarray:
    """Points of the complex projective line attached to the columns of
    V, one eigenvector each, as the rows of a k x 2 array.

    A column v determines (a_i : b_i) at its largest entry, which is
    invariant under the complex rescalings that preserve eigenvalue
    representatives.  Each row is a unit 2-vector whose largest
    component is positive real.
    """
    cols = np.arange(V.shape[1])
    i = np.argmax(np.abs(V.a) ** 2 + np.abs(V.b) ** 2, axis=0)
    p = np.stack([V.a[i, cols], V.b[i, cols]], axis=1)
    p = p / np.linalg.norm(p, axis=1, keepdims=True)
    top = p[cols, np.argmax(np.abs(p), axis=1)]
    return p / (top / np.abs(top))[:, None]


def projective_points_equal(p: np.ndarray, q: np.ndarray,
                            tol: float = 1e-7) -> bool:
    return float(np.linalg.norm(p - q)) <= tol


def element_conjugator(space: HermitianSpace, X: QArray, Y: QArray) -> QArray:
    """A form-preserving S with S X S^{-1} = Y for loxodromics with the
    same eigenvalue data."""
    tol = CONJUGATOR_TOL
    fx, fy = eigen_frame(space, QArray.stack([X, Y]))
    if (abs(fx.radius - fy.radius) > tol or abs(fx.theta - fy.theta) > tol
            or np.max(np.abs(fx.phis - fy.phis), initial=0.0) > tol):
        raise DegenerateSpectrum("eigenvalue data of the two elements differ")
    S = fy.frame_matrix() @ fx.frame_matrix().inverse()
    resid = (S @ X @ S.inverse() - Y).max_abs()
    if resid > tol * (1.0 + Y.max_abs()):
        raise DegenerateSpectrum(f"conjugation residual {resid:.3e}")
    return S
