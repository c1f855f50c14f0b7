"""Sp(1) alignment of quaternion arrays.

A quaternion scalar is a 0-d QArray q = a + j*b, with a = w + i*x and
b = y - i*z for its real components (w, x, y, z); the algebra of
scalars is the entrywise algebra of QArray.  What is left here is the
one rule that is special to the quaternions: the unit mu that
conjugates one array onto another entrywise.
"""

from __future__ import annotations

import numpy as np

from .qmatrix import QArray

DEFAULT_TOL = 1e-10


def align_sp1(q: QArray, qp: QArray, tol: float = DEFAULT_TOL):
    """Unit mu (a 0-d QArray) with mu * q * conj(mu) = q' entrywise, for
    two QArrays q and q' of one shape, or None.

    Solved as a rigid rotation of the imaginary parts (Davenport's
    q-method), then verified on every entry.  Real parts and moduli are
    checked first; entries with negligible imaginary part only constrain
    the real part.
    """
    mods, mods_p = q.moduli(), qp.moduli()
    scale = max(1.0, float(np.max(mods, initial=0.0)))
    # similar classes: equal real parts and moduli
    if not np.all((np.abs(qp.a.real - q.a.real) <= tol * scale)
                  & (np.abs(mods_p - mods) <= tol * scale)):
        return None
    axes, axes_p = q.components()[..., 1:], qp.components()[..., 1:]
    keep = np.linalg.norm(axes, axis=-1) > tol * scale
    if not keep.any():
        return QArray(1.0)
    B = axes_p[keep].T @ axes[keep]
    sigma = np.trace(B)
    zvec = np.array([B[1, 2] - B[2, 1], B[2, 0] - B[0, 2], B[0, 1] - B[1, 0]])
    Kmat = np.empty((4, 4))
    Kmat[0, 0] = sigma
    Kmat[0, 1:] = zvec
    Kmat[1:, 0] = zvec
    Kmat[1:, 1:] = B + B.T - sigma * np.eye(3)
    vals, vecs = np.linalg.eigh(Kmat)
    cand = QArray.from_components(vecs[:, -1])
    cand = cand.scale(1.0 / cand.moduli())
    for mu in (cand, cand.conj()):
        if np.max((mu * q * mu.conj() - qp).moduli()) <= tol * scale:
            return mu
    return None
