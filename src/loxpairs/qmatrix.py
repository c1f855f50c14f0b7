"""Vectors and matrices over the quaternions.

A quaternionic array M is stored as a pair of complex ndarrays (a, b)
with M = a + j*b.  Matrix products and inverses go through the standard
complex embedding

    M  ->  [[a, -conj(b)], [b, conj(a)]]

which is a ring homomorphism; for column vectors the embedding stacks
(a; b).  A quaternion scalar is a 0-d QArray, and scalars act on vectors
from the right: v * q broadcasts the entrywise product.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, LoxpairsError


class QArray:
    """Quaternionic ndarray: a 0-d scalar, a vector, a matrix or a stack."""

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
    def from_columns(cls, cols) -> "QArray":
        return cls(np.stack([c.a for c in cols], axis=1),
                   np.stack([c.b for c in cols], axis=1))

    @classmethod
    def stack(cls, arrays) -> "QArray":
        """QArrays of one shape stacked along a new first axis."""
        return cls(np.stack([q.a for q in arrays]),
                   np.stack([q.b for q in arrays]))

    @classmethod
    def from_components(cls, q) -> "QArray":
        """Inverse of components: entries from real (w, x, y, z) along
        the last axis."""
        w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
        return cls(w + 1j * x, y - 1j * z)

    @classmethod
    def diag(cls, values) -> "QArray":
        """Diagonal matrix from complex values, or the stack of diagonal
        matrices of a stack of value rows."""
        v = np.asarray(values, dtype=complex)
        D = np.zeros(v.shape + v.shape[-1:], dtype=complex)
        i = np.arange(v.shape[-1])
        D[..., i, i] = v
        return cls(D)

    # -- basic views ----------------------------------------------------

    @property
    def shape(self):
        return self.a.shape

    @property
    def ndim(self):
        return self.a.ndim

    def copy(self) -> "QArray":
        return QArray(self.a.copy(), self.b.copy())

    def column(self, j: int) -> "QArray":
        return QArray(self.a[:, j], self.b[:, j])

    def pick(self, *idx) -> "QArray":
        """The entries at numpy indices idx, as a QArray."""
        return QArray(self.a[idx], self.b[idx])

    def components(self) -> np.ndarray:
        """The real components (w, x, y, z) of every entry, along a new
        last axis."""
        return np.stack([self.a.real, self.a.imag, self.b.real,
                         -self.b.imag], axis=-1)

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "QArray") -> "QArray":
        return QArray(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QArray") -> "QArray":
        return QArray(self.a - other.a, self.b - other.b)

    def scale(self, t: float) -> "QArray":
        return QArray(self.a * t, self.b * t)

    def __matmul__(self, other: "QArray") -> "QArray":
        # (A1 + j A2)(B1 + j B2) = (A1 B1 - conj(A2) B2) + j (A2 B1 + conj(A1) B2)
        return QArray(self.a @ other.a - np.conj(self.b) @ other.b,
                      self.b @ other.a + np.conj(self.a) @ other.b)

    def __mul__(self, other: "QArray") -> "QArray":
        """Entrywise quaternion product, broadcasting like numpy."""
        return QArray(self.a * other.a - np.conj(self.b) * other.b,
                      self.b * other.a + np.conj(self.a) * other.b)

    def conj(self) -> "QArray":
        """Entrywise conjugate w - xi - yj - zk, i.e. conj(a) - j b."""
        return QArray(np.conj(self.a), -self.b)

    def reciprocal(self) -> "QArray":
        """Entrywise inverse conj(q) / |q|^2."""
        m2 = np.abs(self.a) ** 2 + np.abs(self.b) ** 2
        return QArray(np.conj(self.a) / m2, -self.b / m2)

    def moduli(self) -> np.ndarray:
        """Entrywise |q|."""
        return np.sqrt(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)

    def transpose(self) -> "QArray":
        """Transpose of a matrix or of each matrix of a stack, unconjugated."""
        return QArray(self.a.swapaxes(-1, -2), self.b.swapaxes(-1, -2))

    def adjoint(self) -> "QArray":
        """Quaternionic conjugate transpose of a matrix, or of each
        matrix in a stack."""
        if self.ndim < 2:
            raise LoxpairsError("adjoint needs a matrix")
        return QArray(np.conj(self.a).swapaxes(-1, -2),
                      -self.b.swapaxes(-1, -2))

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
        """Inverse of embed.  A matrix is read off the left half of its
        embedding, which is its embedded columns side by side."""
        m = M.shape[-min(M.ndim, 2)] // 2
        if M.ndim == 1:
            return cls(M[:m], M[m:])
        return cls(M[..., :m, :m], M[..., m:, :m])

    def inverse(self) -> "QArray":
        try:
            return QArray.from_embed(np.linalg.inv(self.embed()))
        except np.linalg.LinAlgError as exc:
            raise DegenerateInputError("singular matrix") from exc

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


def quaternionic_rank(V: QArray, tol: float = 1e-8):
    """Rank over the quaternions of the columns of the matrix V, or one
    rank per matrix of a stack, from one stacked SVD.

    The embedding of V has the complex columns of every column v and of
    v*j; its complex rank is twice the quaternionic rank.  A zero matrix
    has no singular value above tol times its largest, so rank 0.
    """
    s = np.linalg.svd(V.embed(), compute_uv=False)
    rank = (np.sum(s > tol * s[..., :1], axis=-1) + 1) // 2
    return int(rank) if V.ndim == 2 else rank
