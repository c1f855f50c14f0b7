"""Spectral data of isometries: real trace coefficients, loxodromic
classification, and attracting/repelling eigen-frames.

All eigen-computations go through the complex embedding of the matrix.
Eigenvalue classes of a quaternionic matrix are labelled by their unique
complex representative with non-negative imaginary part.

An eigen-frame is built in two steps.  The class count and simplicity
come from the characteristic polynomial: Faddeev-LeVerrier coefficients,
their companion-matrix roots checked and polished by Aberth, and
clustering within each root's Newton distance to a multiple root.  The
eigenpairs come from one LAPACK eig of the balanced matrix, whose upper
half-plane eigenvalues represent the classes, and are polished by one
bordered-Newton step of mixed-precision refinement: the residual is
formed in extended precision and the correction comes from LAPACK.
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
    if not space.is_isometry(A, tol=PALINDROME_TOL * (1.0 + A.max_abs() ** 2)):
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
        raise PalindromeViolation(f"coefficient symmetry violated by {dev:.3e}")
    coeffs = 0.5 * (coeffs.real + coeffs.real[::-1])
    return coeffs


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
            return ElementClass(False, delta, tr, "real eigenvalue on the unit circle")
        return ElementClass(True, delta, tr)
    roots = aberth_roots(chi)
    radii = np.sort(np.abs(roots))
    if radii[-1] <= 1.0 + RADIUS_GUARD:
        return ElementClass(False, None, tr, "no expanding eigenvalue")
    centers, _ = cluster_roots(chi, roots)
    if centers.size < space.n + 1:
        return ElementClass(False, None, tr, "repeated eigenvalues")
    return ElementClass(True, None, tr)


def _balance_scaling(A: QArray) -> np.ndarray:
    """Diagonal scaling d with D^-1 A D of roughly balanced row/column
    norms; the eigenvector error floor is eps * ||A||, so conjugates
    with large entries need this before the eigensolver."""
    mag = np.abs(A.a) + np.abs(A.b)
    if mag.max() <= 100.0:
        # moderate entries gain nothing, and rescaling perturbs the
        # accuracy profile of well-scaled frames
        return np.ones(mag.shape[0])
    _, (d, _) = scipy.linalg.matrix_balance(mag, permute=False,
                                            separate=True)
    return d


def _polish_eigenpairs(M: np.ndarray, V: np.ndarray, lams: np.ndarray):
    """One bordered-Newton correction of every eigenpair (row V[i],
    lams[i]) of M, by mixed-precision iterative refinement: the residual
    lams V - V M^T is formed in extended precision, the correction comes
    from one LAPACK solve of the stacked bordered systems in double, and
    is added in extended precision before rounding.  It pushes the
    eigenvector error below the eps * ||M|| floor that a double-precision
    eigensolver hits on conjugates with large entries.  The pairs stay
    as they are when a bordered system is singular."""
    n = M.shape[0]
    k = lams.size
    J = np.zeros((k, n + 1, n + 1), dtype=complex)
    J[:, :n, :n] = M - lams[:, None, None] * np.eye(n)
    J[:, :n, n] = -V
    J[:, n, :n] = np.conj(V)
    Vl = V.astype(np.clongdouble)
    L = lams.astype(np.clongdouble)
    rhs = np.zeros((k, n + 1), dtype=complex)
    rhs[:, :n] = L[:, None] * Vl - Vl @ M.astype(np.clongdouble).T
    try:
        delta = np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return V, lams
    Vl = Vl + delta[:, :n]
    Vl /= np.sqrt(np.sum(np.abs(Vl) ** 2, axis=1))[:, None]
    return np.asarray(Vl, dtype=complex), np.asarray(L + delta[:, n],
                                                     dtype=complex)


def _eigenpairs(space: HermitianSpace, A: QArray):
    """Quaternionic eigenvectors and polished eigenvalues, one per class.

    One LAPACK eig of the balanced complex matrix that stands for A
    (space.as_complex) gives every eigenpair.  The embedding's spectrum
    is closed under conjugation, so its upper half holds the Im >= 0
    representative of every class.  One Newton step on an
    extended-precision residual polishes these pairs.
    """
    Mfull = space.as_complex(A)
    d = _balance_scaling(A)
    # the embedding repeats every row of A, so its scaling repeats d
    d = np.tile(d, Mfull.shape[0] // d.size)
    M = Mfull * d[None, :] / d[:, None]
    evals, evecs = np.linalg.eig(M)
    idx = np.argsort(-evals.imag)[:space.dim]
    W, lams = _polish_eigenpairs(M, evecs[:, idx].T, evals[idx])
    W = W * d
    W /= np.linalg.norm(W, axis=1)[:, None]
    # the embedding carries A v - v lam to Mfull w - lam w
    resid = np.linalg.norm(W @ Mfull.T - lams[:, None] * W, axis=1)
    gate = RESIDUAL_TOL * (1.0 + A.max_abs())
    if np.max(resid) > gate:
        raise DegenerateSpectrum(f"eigenvector residual {np.max(resid):.3e}")
    return [(space.from_complex(w), lam) for w, lam in zip(W, lams)]


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


def _class_representatives(space: HermitianSpace, A: QArray):
    """Eigenvalue class representatives with multiplicities."""
    coeffs = faddeev_leverrier(space.as_complex(A))
    roots = aberth_roots(coeffs)
    if space.field == "quaternion":
        # classes come in conjugate pairs; keep Im >= 0 representatives
        roots = roots[roots.imag >= -1e-12]
    centers, mults = cluster_roots(coeffs, roots)
    return centers, mults


def eigen_frame(space: HermitianSpace, A: QArray) -> LoxodromicFrame:
    """Spectral frame of a loxodromic isometry."""
    tol = RADIUS_GUARD
    centers, mults = _class_representatives(space, A)
    if np.any(mults > 1) or centers.size != space.dim:
        raise DegenerateSpectrum("eigenvalue classes are not simple")
    pairs = _eigenpairs(space, A)
    centers = np.array([lam for _, lam in pairs])
    radii = np.abs(centers)
    # attracting fixed point carries the eigenvalue class of modulus r < 1
    i_att = int(np.argmin(radii))
    i_rep = int(np.argmax(radii))
    if radii[i_rep] <= 1.0 + tol or radii[i_att] >= 1.0 - tol:
        raise NotLoxodromic("no attracting/repelling eigenvalue pair")
    lam_att = centers[i_att]
    lam_rep = centers[i_rep]
    if space.field == "quaternion":
        if np.any(centers.imag < -1e-9):
            raise DegenerateSpectrum(
                "class representative left the upper half plane")
        if min(abs(lam_att.imag), abs(lam_rep.imag)) <= tol * abs(lam_att):
            raise RealEigenvalueClass("attracting class meets the real axis")
        if abs(lam_rep / abs(lam_rep) - lam_att / abs(lam_att)) > 1e-6:
            raise DegenerateSpectrum("attracting/repelling angles disagree")
    unit_idx = [i for i in range(centers.size) if i not in (i_att, i_rep)]
    if np.any(np.abs(radii[unit_idx] - 1.0) > tol):
        raise DegenerateSpectrum("non-unit intermediate eigenvalue")
    unit_idx.sort(key=lambda i: np.angle(centers[i]))
    theta = float(np.angle(lam_att))
    r = float(radii[i_att])

    a = pairs[i_att][0]
    rv = pairs[i_rep][0]
    positives = [pairs[i][0] for i in unit_idx]
    phis = np.array([float(np.angle(centers[i])) for i in unit_idx])

    # only complex rescalings keep the eigenvalue representatives intact
    g = space.inner(a, rv)
    if abs(g.b) > 1e-7 * (1.0 + g.moduli()):
        raise DegenerateSpectrum(
            f"attracting/repelling pairing has j part {abs(g.b):.3e}")
    rv = rv * QArray(1.0 / np.conj(g.a))
    for x in positives:
        if space.norm_sq(x) <= 0:
            raise DegenerateSpectrum("intermediate eigenvector is not positive")
    positives = [x.scale(1.0 / np.sqrt(space.norm_sq(x))) for x in positives]
    frame = LoxodromicFrame(r, theta, phis, a, rv, positives, space)
    resid = (frame.rebuild() - A).max_abs()
    # evaluation noise of F D F^-1 grows like eps * cond(F), so the gate
    # must not outpace what double precision can certify
    kappa = np.linalg.cond(frame.frame_matrix().embed())
    gate = (1.0 + A.max_abs()) * max(RESIDUAL_TOL,
                                     20 * np.finfo(float).eps * kappa)
    if resid > gate:
        raise DegenerateSpectrum(f"frame reconstruction residual {resid:.3e}")
    return frame


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
    fx = eigen_frame(space, X)
    fy = eigen_frame(space, Y)
    if (abs(fx.radius - fy.radius) > tol or abs(fx.theta - fy.theta) > tol
            or np.max(np.abs(fx.phis - fy.phis), initial=0.0) > tol):
        raise DegenerateSpectrum("eigenvalue data of the two elements differ")
    S = fy.frame_matrix() @ fx.frame_matrix().inverse()
    resid = (S @ X @ S.inverse() - Y).max_abs()
    if resid > tol * (1.0 + Y.max_abs()):
        raise DegenerateSpectrum(f"conjugation residual {resid:.3e}")
    return S
