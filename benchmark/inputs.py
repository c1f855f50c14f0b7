"""Benchmark inputs, built from the workload seed with numpy and scipy only.

Nothing here calls loxpairs, so two versions of the library receive
bit-identical matrices for the same seed.  Every matrix is held as its
complex embedding

    M = a + j b  ->  E = [[a, -conj(b)], [b, conj(a)]]

for both fields (a complex matrix has b = 0), so products, inverses and
spectra are plain numpy calls on E.  `split` returns the (a, b) pair the
library's QArray is built from.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.linalg

# sampling ranges of loxpairs.generate, restated so that the inputs do
# not depend on the library under test
RADIUS_RANGE = (0.2, 0.9)
ANGLE_FLOOR = 0.1
CLASS_SEPARATION = 1e-3


def form(n: int) -> np.ndarray:
    """The form of signature (n, 1), null basis vectors first and last."""
    H = np.eye(n + 1, dtype=complex)
    H[0, 0] = H[n, n] = 0.0
    H[0, n] = H[n, 0] = 1.0
    return H


def embed(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Complex embedding of a quaternionic matrix or column vector."""
    if b is None:
        b = np.zeros_like(a)
    if a.ndim == 1:
        return np.concatenate([a, b])
    return np.block([[a, -np.conj(b)], [b, np.conj(a)]])


def from_qarray(Q) -> np.ndarray:
    """Embedding of a library QArray (anything with .a and .b)."""
    return embed(np.asarray(Q.a), np.asarray(Q.b))


def split(E: np.ndarray):
    """(a, b) of an embedded matrix or vector."""
    m = E.shape[0] // 2
    if E.ndim == 1:
        return E[:m].copy(), E[m:].copy()
    return E[:m, :m].copy(), E[m:, :m].copy()


def form_embedded(n: int) -> np.ndarray:
    return embed(form(n))


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def isometry(rng, n: int, field: str, scale: float) -> np.ndarray:
    """expm(X) for a random X = H K in the isometry Lie algebra.

    K is skew-Hermitian over the field: its complex part is
    skew-Hermitian and its j-part complex symmetric, which is what
    K* = -K means for K = Ka + j Kb.  `scale` sets the entry size of K
    and with it the norm of the isometry.
    """
    m = n + 1
    G = _gaussian(rng, (m, m))
    Ka = 0.5 * scale * (G - G.conj().T)
    Kb = np.zeros((m, m), dtype=complex)
    if field == "quaternion":
        S = _gaussian(rng, (m, m))
        Kb = 0.5 * scale * (S + S.T)
    H = form(n)
    return scipy.linalg.expm(embed(H @ Ka, H @ Kb))


def spectrum(rng, n: int, field: str) -> np.ndarray:
    """Eigenvalue classes (r e^{i th}, e^{i phi_k}, e^{i th}/r) of a
    regular loxodromic, with classes separated in (Re, modulus)."""
    while True:
        r = rng.uniform(*RADIUS_RANGE)
        if field == "quaternion":
            th = rng.uniform(ANGLE_FLOOR, np.pi - ANGLE_FLOOR)
            phis = np.sort(rng.uniform(ANGLE_FLOOR, np.pi - ANGLE_FLOOR,
                                       n - 1))
        else:
            th = rng.uniform(-np.pi, np.pi)
            phis = np.sort(rng.uniform(-np.pi, np.pi, n - 1))
        lams = np.concatenate([[r * np.exp(1j * th)], np.exp(1j * phis),
                               [np.exp(1j * th) / r]])
        pts = np.stack([lams.real, np.abs(lams)], axis=1)
        gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        if np.all(gaps[np.triu_indices(len(lams), 1)] >= CLASS_SEPARATION):
            return lams


def conj(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    return C @ A @ np.linalg.inv(C)


def loxodromic(rng, n: int, field: str, scale: float) -> np.ndarray:
    """Q E Q^-1 for a random isometry Q and a regular diagonal E."""
    return conj(isometry(rng, n, field, scale), embed(np.diag(spectrum(
        rng, n, field))))


def null_point(rng, n: int, field: str) -> np.ndarray:
    """Embedded null vector (w1, w_2..w_n, 1): Re(w1) = -sum|w_k|^2 / 2."""
    a = _gaussian(rng, n + 1)
    b = _gaussian(rng, n + 1) if field == "quaternion" else \
        np.zeros(n + 1, dtype=complex)
    a[-1], b[-1] = 1.0, 0.0
    mid = float(np.sum(np.abs(a[1:-1]) ** 2 + np.abs(b[1:-1]) ** 2))
    a[0] = -mid / 2.0 + 1j * a[0].imag
    return embed(a, b)


def unit_scalar(rng, field: str):
    """Random unit scalar c + j d of the field, as the pair (c, d)."""
    q = rng.standard_normal(4) if field == "quaternion" else \
        np.array([*rng.standard_normal(2), 0.0, 0.0])
    q /= np.linalg.norm(q)
    return complex(q[0], q[1]), complex(q[2], -q[3])


def rmul(v: np.ndarray, s) -> np.ndarray:
    """Right multiplication of an embedded vector by a scalar (c, d):
    (a + j b)(c + j d) = a c - conj(b) d + j (b c + conj(a) d)."""
    a, b = split(v)
    c, d = s
    return embed(a * c - np.conj(b) * d, b * c + np.conj(a) * d)


def projective_point(v: np.ndarray) -> np.ndarray:
    """(a_i : b_i) of an embedded vector at its largest entry, as a unit
    2-vector with its largest component positive real (the convention
    twist-bend parameter files use)."""
    a, b = split(v)
    i = int(np.argmax(np.abs(a) ** 2 + np.abs(b) ** 2))
    p = np.array([a[i], b[i]])
    p = p / np.linalg.norm(p)
    j = int(np.argmax(np.abs(p)))
    return p / (p[j] / abs(p[j]))


def frame_points(E: np.ndarray, field: str):
    """Projective points of the attracting eigenvector and of the unit
    eigenvectors ordered by angle, from numpy eigenvectors of the
    embedding; the classes are the eigenvalues with Im >= 0 (quaternion)
    or all of them (complex)."""
    m = E.shape[0] // 2
    M = E if field == "quaternion" else E[:m, :m]
    lams, vecs = np.linalg.eig(M)
    if field == "quaternion":
        keep = np.flatnonzero(lams.imag > 0)
    else:
        keep = np.arange(m)
        vecs = np.concatenate([vecs, np.zeros_like(vecs)])
    radii = np.abs(lams[keep])
    att = keep[int(np.argmin(radii))]
    rep = keep[int(np.argmax(radii))]
    units = sorted((k for k in keep if k not in (att, rep)),
                   key=lambda k: np.angle(lams[k]))
    return [projective_point(vecs[:, k]) for k in [att, *units]]


def _classes(E: np.ndarray, field: str) -> np.ndarray:
    """Eigenvalue classes from numpy: all eigenvalues of a complex
    matrix, the eigenvalues with Im > 0 of a quaternionic embedding."""
    m = E.shape[0] // 2
    if field == "quaternion":
        lams = np.linalg.eigvals(E)
        return lams[lams.imag > 0]
    return np.linalg.eigvals(E[:m, :m])


def loxodromic_classes(E: np.ndarray, field: str, tol: float = 1e-6) -> bool:
    """True when exactly one eigenvalue class lies inside and one outside
    the unit circle, the rest on it (numpy eigenvalues)."""
    radii = np.abs(_classes(E, field))
    return int(np.sum(radii < 1 - tol)) == 1 and \
        int(np.sum(radii > 1 + tol)) == 1


def regular_loxodromic(E: np.ndarray, field: str) -> bool:
    """Loxodromic with the spectral regularity `spectrum` guarantees for
    sampled elements: n + 1 classes separated in (Re, modulus) and, for
    quaternions, angles at least ANGLE_FLOOR from the real axis."""
    lams = _classes(E, field)
    if lams.size != E.shape[0] // 2 or not loxodromic_classes(E, field):
        return False
    ang = np.angle(lams)
    if field == "quaternion" and (np.any(ang < ANGLE_FLOOR)
                                  or np.any(ang > np.pi - ANGLE_FLOOR)):
        return False
    pts = np.stack([lams.real, np.abs(lams)], axis=1)
    gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    return bool(np.all(gaps[np.triu_indices(len(lams), 1)]
                       >= CLASS_SEPARATION))


class Digest:
    """SHA-256 over every array handed to the library, in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays):
        for x in arrays:
            x = np.ascontiguousarray(x)
            self._h.update(str(x.dtype).encode() + str(x.shape).encode())
            self._h.update(x.tobytes())

    def add_bytes(self, data: bytes):
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()
