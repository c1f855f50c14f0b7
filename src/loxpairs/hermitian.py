"""The Hermitian form of signature (n,1) and the hyperbolic space it defines.

Coordinates are chosen so that the form is

    <z, w> = w^* H z,      H = antidiag(1, 1) on the first/last slots,
                               identity on the middle block,

i.e. <z,w> = conj(w_{n+1}) z_1 + conj(w_1) z_{n+1} + sum_j conj(w_j) z_j.
Negative vectors project to points of the ball model; null vectors to its
boundary.

`inner` pairs two vectors, a quaternion scalar (a 0-d QArray), or two
stacks of vectors row by row; `gram` gives every pairing of the columns
of V from the one product V^* H V, and the pair stage reads all of its
pairings from such products.
Scalars act on vectors from the right, so <z s, w t> = conj(t) <z, w> s.

`HermitianSpace` owns the split between the two fields.  A complex
QArray is the b = 0 case of a quaternionic one, and the space decides
how either is represented: the complex matrix that stands for it
(`as_complex`, `from_complex`), the real units per entry (`units`),
the real basis of the central scalars (`centre`) and the dimension of
the isometry group (`group_dim`).  `gauge` is the one rule for the
unit scalar left free by the normalization of lifts.
Outside this module a comparison on the field (`field`, `field_tag` or
`units`) remains only where the mathematics differs, one per line
below; tests/test_field_branches.py fails when the code and this list
disagree:

    spectral.real_char_poly      field  chi conj(chi) of a complex chi
    spectral.classify_element    field  delta against eigenvalue moduli
    spectral._simple_classes     field  the upper half-plane class filter
    spectral._assemble           field  the quaternionic class gates
    classify._linearization      units  the complex rows
    classify.conjugacy_test      field  the quaternion-only points
    generate.random_spectrum     field  the sampling angle ranges
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, WrongDimension, WrongField
from .qmatrix import QArray
from .quat import align_sp1

ERROR_THRESHOLD = 1e-10
AT_INFINITY = "last coordinate vanishes; point at infinity"


def form_matrix(n: int) -> np.ndarray:
    H = np.eye(n + 1, dtype=complex)
    H[0, 0] = H[n, n] = 0.0
    H[0, n] = H[n, 0] = 1.0
    return H


def gauge(field: str, q: QArray, qp: QArray, tol: float):
    """Unit mu with mu q conj(mu) = q' entrywise, for two QArrays of one
    shape, or None.

    Over the quaternions this is the Sp(1) alignment.  Over the complex
    numbers the lifts only rescale by complex units, which commute with
    every pairing, so the gauge is trivial: mu = 1 when every entry
    agrees within tol max(1, max|q|), the moduli and scale of align_sp1.
    align_sp1 itself must not see complex entries: its candidate mu = j
    maps q to conj(q), which is no gauge of SU(n,1).
    """
    if field == "quaternion":
        return align_sp1(q, qp, tol=tol)
    scale = max(1.0, float(np.max(q.moduli(), initial=0.0)))
    return QArray(1.0) if np.all((q - qp).moduli() <= tol * scale) \
        else None


class HermitianSpace:
    """Ambient vector space F^{n,1} with F complex or quaternionic."""

    def __init__(self, n: int, field: str = "quaternion"):
        if field not in ("complex", "quaternion"):
            raise WrongField(f"unknown field {field!r}")
        try:
            n = operator.index(n)
        except TypeError:
            raise WrongDimension(f"n must be an integer, got {n!r}") \
                from None
        if n < 2:
            raise WrongDimension(f"need n >= 2, got n = {n}")
        self.n = n
        self.field = field
        quaternion = field == "quaternion"
        # real units per entry: 1, i, j, k or 1, i
        self.units = 4 if quaternion else 2
        # a real basis of the scalars that commute with every entry
        self.centre = (1.0,) if quaternion else (1.0, 1j)
        # dim Sp(n,1) = (n+1)(2n+3), dim SU(n,1) = (n+1)^2 - 1
        self.group_dim = (n + 1) * (2 * n + 3) if quaternion \
            else (n + 1) ** 2 - 1

    @property
    def dim(self) -> int:
        return self.n + 1

    # built on first use, so that a file declaring a huge n fails its
    # shape check before anything of size n is allocated
    @cached_property
    def H(self) -> np.ndarray:
        return form_matrix(self.n)

    @cached_property
    def _HQ(self) -> QArray:
        return QArray(self.H)

    def check_matrices(self, A: QArray):
        """WrongDimension unless A is a dim x dim matrix or a stack of
        them."""
        if A.shape[-2:] != (self.dim, self.dim):
            raise WrongDimension(f"need {self.dim} x {self.dim} matrices, "
                                 f"got {A.shape}")

    def as_complex(self, A: QArray) -> np.ndarray:
        """The complex matrix or vector that stands for A: its complex
        embedding over the quaternions, A itself over the complex
        numbers (where the embedding would only repeat a and conj(a))."""
        return A.embed() if self.field == "quaternion" else A.a

    def from_complex(self, w: np.ndarray) -> QArray:
        """Inverse of as_complex."""
        return QArray.from_embed(w) if self.field == "quaternion" \
            else QArray(w)

    def inner(self, z: QArray, w: QArray) -> QArray:
        """<z, w> = w^* H z of vectors along the last axis, a 0-d QArray
        for two vectors and one pairing per row for stacks of rows.
        Linear in z, conjugate-linear in w."""
        # H is symmetric, so z H is (H z)^T row by row
        Hz_a = z.a @ self.H
        Hz_b = z.b @ self.H
        # w^* u with w = w1 + j w2, u = Hz = u1 + j u2, summed over the
        # entries: conj(w1) u1 + conj(w2) u2 + j (w1 u2 - w2 u1)
        a = np.sum(np.conj(w.a) * Hz_a, axis=-1) \
            + np.sum(np.conj(w.b) * Hz_b, axis=-1)
        b = np.sum(w.a * Hz_b, axis=-1) - np.sum(w.b * Hz_a, axis=-1)
        return QArray(a, b)

    def gram(self, V: QArray) -> QArray:
        """Gram matrix V^* H V of the columns v_1 .. v_k of V: entry
        (i, j) is <v_j, v_i> = inner(v_j, v_i)."""
        return V.adjoint() @ self._HQ @ V

    def norm_sq(self, z: QArray) -> float:
        return float(self.inner(z, z).a.real)

    def is_isometry(self, A: QArray, tol=1e-8):
        """Whether A preserves the form to within tol, or one bool per
        matrix of a stack, where tol may hold one bound per matrix."""
        D = A.adjoint() @ self._HQ @ A - self._HQ
        return D.moduli().max(axis=(-2, -1)) <= tol

    def at_infinity(self, z: QArray) -> np.ndarray:
        """Whether the last coordinate of z, or of each vector of a
        stack, vanishes against ERROR_THRESHOLD |z|, so that the point
        has no lift in the Siegel chart."""
        size = np.sqrt(np.sum(np.abs(z.a) ** 2 + np.abs(z.b) ** 2, axis=-1))
        return z.pick(Ellipsis, self.n).moduli() <= ERROR_THRESHOLD * size

    def bergman_distance(self, z: QArray, w: QArray) -> float:
        """Distance between the points of hyperbolic space below z and w."""
        zz = self.norm_sq(z)
        ww = self.norm_sq(w)
        if zz >= 0 or ww >= 0:
            raise DegenerateInputError("distance needs negative vectors")
        zw = self.inner(z, w)
        c = float(zw.moduli()) ** 2 / (zz * ww)
        c = max(c, 1.0)
        return 2.0 * np.arccosh(np.sqrt(c))

    # -- random isometries ---------------------------------------------

    def _random_qarray(self, rng, shape) -> QArray:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if self.field == "complex":
            return QArray(a)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return QArray(a, b)

    def random_negative_vector(self, rng) -> QArray:
        # (w1, w2..wn, 1) is negative iff 2 Re(w1) + sum |w_i|^2 < 0, so
        # pick the interior part and push Re(w1) below the barrier.
        z = self._random_qarray(rng, self.dim)
        z.a[-1], z.b[-1] = 1.0, 0.0
        mid = float(np.sum(np.abs(z.a[1:-1]) ** 2
                           + np.abs(z.b[1:-1]) ** 2))
        depth = rng.uniform(0.1, 2.0)
        z.a[0] = -(mid / 2.0 + depth) + 1j * z.a[0].imag
        if self.field == "quaternion":
            z.b[0] = rng.standard_normal() + 1j * rng.standard_normal()
        else:
            z.b[0] = 0.0
        # the j-part of w1 only shifts the imaginary part of <z,z>
        if self.norm_sq(z) >= -1e-6:
            raise DegenerateInputError("negative-vector construction failed")
        return z

    def _diagonalizing_basis(self, rng) -> list:
        """Random H-orthogonal basis u_1..u_{n+1} with |<u_i,u_i>| = 1,
        the last vector negative, the rest positive."""
        basis = []
        un = self.random_negative_vector(rng)
        un = un.scale(1.0 / np.sqrt(-self.norm_sq(un)))
        for _ in range(self.n):
            for _attempt in range(64):
                v = self._random_qarray(rng, self.dim)
                # project away from the span collected so far
                v = v + un * self.inner(v, un)  # <un,un> = -1
                for u in basis:
                    v = v - u * self.inner(v, u)
                s = self.norm_sq(v)
                if s > 1e-6 * v.norm() ** 2:
                    basis.append(v.scale(1.0 / np.sqrt(s)))
                    break
            else:
                raise DegenerateInputError("orthogonalization stalled")
        basis.append(un)
        return basis

    def random_isometry(self, rng) -> QArray:
        """Haar-ish random element of the isometry group of the form."""
        basis = self._diagonalizing_basis(rng)
        U = QArray.from_columns(basis)
        # U^* H U = D = diag(1..1,-1); convert through the null basis
        # b_1 = (e_1 + e_{n+1})/sqrt2, b_{n+1} = (e_1 - e_{n+1})/sqrt2
        # whose matrix P satisfies P^* H P = D as well; then A = U P^{-1}.
        P = np.eye(self.dim, dtype=complex)
        s = 1.0 / np.sqrt(2.0)
        P[0, 0] = P[0, self.dim - 1] = s
        P[self.dim - 1, 0] = s
        P[self.dim - 1, self.dim - 1] = -s
        A = U @ QArray(np.linalg.inv(P))
        if not self.is_isometry(A, tol=1e-8):
            raise DegenerateInputError("isometry construction lost precision")
        return A
