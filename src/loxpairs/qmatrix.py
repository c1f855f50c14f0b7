"""Vectors and matrices over the quaternions.

A quaternionic array M is stored as a pair of complex ndarrays (a, b)
with M = a + j*b.  Matrix products and inverses go through the standard
complex embedding

    M  ->  [[a, -conj(b)], [b, conj(a)]]

which is a ring homomorphism; for column vectors the embedding stacks
(a; b).  Scalars act on vectors from the right.
"""

from __future__ import annotations

import numpy as np

from .errors import LoxpairsError
from .quat import Quaternion


class QArray:
    """Quaternionic ndarray (1-d vector or 2-d matrix)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = np.asarray(a, dtype=complex)
        if b is None:
            b = np.zeros_like(self.a)
        self.b = np.asarray(b, dtype=complex)
        if self.a.shape != self.b.shape:
            raise LoxpairsError("component shapes differ")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, shape) -> "QArray":
        return cls(np.zeros(shape, dtype=complex))

    @classmethod
    def eye(cls, n: int) -> "QArray":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def from_quaternions(cls, entries) -> "QArray":
        """Build from a (nested) sequence of Quaternion values."""
        arr = np.asarray([[q.to_array() for q in row] for row in entries]
                         if isinstance(entries[0], (list, tuple))
                         else [q.to_array() for q in entries])
        w, x, y, z = np.moveaxis(arr, -1, 0)
        return cls(w + 1j * x, y - 1j * z)

    @classmethod
    def from_real(cls, arr) -> "QArray":
        return cls(np.asarray(arr, dtype=complex))

    @classmethod
    def from_columns(cls, cols) -> "QArray":
        return cls(np.stack([c.a for c in cols], axis=1),
                   np.stack([c.b for c in cols], axis=1))

    @classmethod
    def diag(cls, values) -> "QArray":
        """Diagonal matrix from complex values."""
        return cls(np.diag(np.asarray(values, dtype=complex)))

    # -- basic views ----------------------------------------------------

    @property
    def shape(self):
        return self.a.shape

    @property
    def ndim(self):
        return self.a.ndim

    def copy(self) -> "QArray":
        return QArray(self.a.copy(), self.b.copy())

    def entry(self, *idx) -> Quaternion:
        return Quaternion.from_complex_pair(self.a[idx], self.b[idx])

    def column(self, j: int) -> "QArray":
        return QArray(self.a[:, j], self.b[:, j])

    def to_quaternions(self):
        if self.ndim == 1:
            return [self.entry(i) for i in range(self.shape[0])]
        return [[self.entry(i, j) for j in range(self.shape[1])]
                for i in range(self.shape[0])]

    def is_complex(self, tol: float = 1e-12) -> bool:
        return float(np.max(np.abs(self.b))) <= tol * (1.0 + self.norm())

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "QArray") -> "QArray":
        return QArray(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QArray") -> "QArray":
        return QArray(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QArray":
        return QArray(-self.a, -self.b)

    def scale(self, t: float) -> "QArray":
        return QArray(self.a * t, self.b * t)

    def __matmul__(self, other: "QArray") -> "QArray":
        # (A1 + j A2)(B1 + j B2) = (A1 B1 - conj(A2) B2) + j (A2 B1 + conj(A1) B2)
        return QArray(self.a @ other.a - np.conj(self.b) @ other.b,
                      self.b @ other.a + np.conj(self.a) @ other.b)

    def adjoint(self) -> "QArray":
        """Quaternionic conjugate transpose of a matrix, or of each
        matrix in a stack."""
        if self.ndim < 2:
            raise LoxpairsError("adjoint needs a matrix")
        return QArray(np.conj(self.a).swapaxes(-1, -2),
                      -self.b.swapaxes(-1, -2))

    def rmul(self, q: Quaternion) -> "QArray":
        """Entrywise right multiplication by a scalar (vector scaling)."""
        c, d = q.complex_pair()
        return QArray(self.a * c - np.conj(self.b) * d,
                      self.b * c + np.conj(self.a) * d)

    def embed(self) -> np.ndarray:
        """Complex embedding: matrix (or each matrix in a stack) ->
        2m x 2m blocks, vector -> 2m stack."""
        if self.ndim == 1:
            return np.concatenate([self.a, self.b])
        top = np.concatenate([self.a, -np.conj(self.b)], axis=-1)
        bot = np.concatenate([self.b, np.conj(self.a)], axis=-1)
        return np.concatenate([top, bot], axis=-2)

    @classmethod
    def from_embed(cls, M: np.ndarray) -> "QArray":
        m = M.shape[-1] // 2
        if M.ndim == 1:
            return cls(M[:m], M[m:])
        return cls(M[..., :m, :m], M[..., m:, :m])

    def inverse(self) -> "QArray":
        return QArray.from_embed(np.linalg.inv(self.embed()))

    def norm(self) -> float:
        """Frobenius norm (sum of squared quaternion moduli)."""
        return float(np.sqrt(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)))

    def max_abs(self) -> float:
        return float(np.sqrt(np.max(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)))

    def allclose(self, other: "QArray", tol: float = 1e-10) -> bool:
        return (self - other).max_abs() <= tol


def conjugate_by(C: QArray, A: QArray) -> QArray:
    """C A C^-1."""
    return C @ A @ C.inverse()


def commutator(A: QArray, B: QArray) -> QArray:
    """A B A^-1 B^-1."""
    return A @ B @ A.inverse() @ B.inverse()


def quaternionic_rank(vectors, tol: float = 1e-8) -> int:
    """Rank over the quaternions of a list of QArray column vectors.

    Each vector v contributes the complex columns of the embedding of
    {v, v*j}; the complex rank of the stack is twice the quaternionic
    rank.
    """
    cols = []
    for v in vectors:
        cols.append(np.concatenate([v.a, v.b]))
        # v * j: (a + j b) j = -conj(b) + j conj(a)
        cols.append(np.concatenate([-np.conj(v.b), np.conj(v.a)]))
    M = np.stack(cols, axis=1)
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    r = int(np.sum(s > tol * s[0]))
    return (r + 1) // 2
