"""Quaternion scalars, similarity classes and Sp(1) alignment.

A quaternion q = w + x*i + y*j + z*k is stored by its four real
components.  Internally many routines use the complex pair (a, b) with
q = a + j*b, a = w + i*x, b = y - i*z, which matches the block
convention of the complex matrix embedding used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSimilar

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_complex(cls, c) -> "Quaternion":
        c = complex(c)
        return cls(c.real, c.imag, 0.0, 0.0)

    @classmethod
    def from_complex_pair(cls, a, b) -> "Quaternion":
        a = complex(a)
        b = complex(b)
        return cls(a.real, a.imag, b.real, -b.imag)

    @classmethod
    def from_array(cls, arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return cls(w, x, y, z)

    # -- views ----------------------------------------------------------

    def complex_pair(self) -> tuple[complex, complex]:
        return complex(self.w, self.x), complex(self.y, -self.z)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def real(self) -> float:
        return self.w

    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_complex(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.y) <= tol and abs(self.z) <= tol

    def to_complex(self, tol: float = DEFAULT_TOL) -> complex:
        if not self.is_complex(tol * (1.0 + abs(self))):
            raise ValueError(f"quaternion {self} has nonzero j,k part")
        return complex(self.w, self.x)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisionError("inverse of zero quaternion")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def normalized(self) -> "Quaternion":
        return self * (1.0 / abs(self))

    def isclose(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return abs(self - other) <= tol


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def similarity_representative(q: Quaternion) -> complex:
    """Canonical complex representative r*e^(i*theta), theta in [0, pi]."""
    return complex(q.w, q.imag_norm())


def similar(a: Quaternion, b: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """Same similarity class: equal real part and equal modulus."""
    return abs(a.w - b.w) <= tol and abs(abs(a) - abs(b)) <= tol


def conjugator_within_class(q: Quaternion, target: Quaternion,
                            tol: float = DEFAULT_TOL) -> Quaternion:
    """Unit mu with mu^-1 * q * mu = target, for similar q and target."""
    # align_sp1 gives nu with nu q conj(nu) = target, and mu = conj(nu)
    nu = align_sp1([(q, target)], tol=max(tol, 1e-9 * (1.0 + abs(q))))
    if nu is None:
        raise NotSimilar(f"{q} and {target} are not in the same class")
    return nu.conjugate()


def align_sp1(pairs, tol: float = DEFAULT_TOL):
    """Unit mu with mu * q * conj(mu) = q' for every (q, q') pair, or None.

    Solved as a rigid rotation of the imaginary parts (Davenport's
    q-method), then verified on every entry.  Real parts and moduli are
    checked first; pairs with negligible imaginary part only constrain
    the real part.
    """
    from .qmatrix import QArray   # qmatrix builds on this module

    z = np.array([(*q.complex_pair(), *qp.complex_pair())
                  for q, qp in pairs], dtype=complex).reshape(-1, 2, 2)
    qs = QArray(z[..., 0], z[..., 1])             # rows (q, q')
    mods = qs.moduli()
    scale = max(1.0, float(np.max(mods[:, 0], initial=0.0)))
    # similar classes: equal real parts and moduli
    if not np.all((np.abs(np.diff(qs.a.real, axis=1)) <= tol * scale)
                  & (np.abs(np.diff(mods, axis=1)) <= tol * scale)):
        return None
    axes = np.stack([qs.a.imag, qs.b.real, -qs.b.imag], axis=-1)
    keep = np.linalg.norm(axes[:, 0], axis=1) > tol * scale
    if not keep.any():
        return ONE
    B = axes[keep, 1].T @ axes[keep, 0]
    sigma = np.trace(B)
    zvec = np.array([B[1, 2] - B[2, 1], B[2, 0] - B[0, 2], B[0, 1] - B[1, 0]])
    Kmat = np.empty((4, 4))
    Kmat[0, 0] = sigma
    Kmat[0, 1:] = zvec
    Kmat[1:, 0] = zvec
    Kmat[1:, 1:] = B + B.T - sigma * np.eye(3)
    vals, vecs = np.linalg.eigh(Kmat)
    cand = Quaternion.from_array(vecs[:, -1]).normalized()
    q, qp = qs.pick(slice(None), 0), qs.pick(slice(None), 1)
    for mu in (cand, cand.conjugate()):
        m, mbar = (QArray(*u.complex_pair()) for u in (mu, mu.conjugate()))
        if np.max((m * q * mbar - qp).moduli()) <= tol * scale:
            return mu
    return None
