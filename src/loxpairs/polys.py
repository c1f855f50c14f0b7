"""Polynomial utilities: characteristic coefficients, root finding,
root clustering, and resultants.

Roots start from the eigenvalues of the companion matrix (np.roots),
which are backward stable.  A simultaneous Aberth--Ehrlich iteration then
polishes and checks them against a relative residual, so close clusters
can be merged with a multiplicity estimate afterwards.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

ABERTH_MAXITER = 400
ABERTH_TOL = 1e-13


def faddeev_leverrier(M: np.ndarray) -> np.ndarray:
    """Coefficients [1, c1, ..., cm] of det(xI - M) via trace recursion;
    for a stack of matrices, one row of coefficients per matrix."""
    m = M.shape[-1]
    coeffs = np.empty(M.shape[:-2] + (m + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    eye = np.eye(m, dtype=complex)
    N = eye
    for k in range(1, m + 1):
        N = M @ N
        c = -np.trace(N, axis1=-2, axis2=-1) / k
        coeffs[..., k] = c
        N = N + c[..., None, None] * eye
    return coeffs


def polyval_with_derivatives(coeffs: np.ndarray, x):
    """p(x), p'(x), p''(x) by Horner on the monic coefficient list."""
    p = coeffs[0] * np.ones_like(x)
    dp = np.zeros_like(x)
    ddp = np.zeros_like(x)
    for c in coeffs[1:]:
        ddp = ddp * x + 2.0 * dp
        dp = dp * x + p
        p = p * x + c
    return p, dp, ddp


def aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of the polynomial with the given monic coefficient list."""
    coeffs = np.asarray(coeffs, dtype=complex)
    with np.errstate(all="ignore"):
        coeffs = coeffs / coeffs[0]
    if not np.all(np.isfinite(coeffs)):
        raise NoConvergence("polynomial coefficients are not finite")
    m = coeffs.size - 1
    if m == 0:
        return np.empty(0, dtype=complex)
    z = np.roots(coeffs)
    # residuals are judged against sum_k |c_k| |z|^k, so large-modulus
    # roots are not held to the absolute scale of the small ones
    acoeffs = np.abs(coeffs)
    for _ in range(ABERTH_MAXITER):
        p, dp, _ = polyval_with_derivatives(coeffs, z)
        if np.all(np.abs(p) <= ABERTH_TOL * np.polyval(acoeffs, np.abs(z))):
            break
        w = p / np.where(dp == 0, 1e-300, dp)
        diff = z[:, None] - z[None, :]
        # the starts of an exactly repeated root coincide; they exert no
        # pull on each other, as the diagonal exerts none
        diff[diff == 0] = np.inf
        s = np.sum(1.0 / diff, axis=1)
        z = z - w / (1.0 - w * s)
    else:
        p, _, _ = polyval_with_derivatives(coeffs, z)
        if np.any(np.abs(p) > 1e-9 * np.polyval(acoeffs, np.abs(z))):
            raise NoConvergence("root iteration did not converge")
    return z


def cluster_roots(coeffs: np.ndarray, roots: np.ndarray):
    """Merge numerically split multiple roots.

    Returns (centers, multiplicities).  Each root gets a local
    multiplicity estimate k = Re(p'^2 / (p'^2 - p p'')) and a cluster
    radius k |p / p'|, the Newton distance to a k-fold root; roots whose
    radii overlap are averaged together.  The radius has the units of z,
    so it does not depend on how small |p| happens to be where the root
    iteration stopped.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    p, dp, ddp = polyval_with_derivatives(coeffs, roots)
    denom = dp * dp - p * ddp
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    mult_est = np.clip(np.real(dp * dp / denom), 1.0, coeffs.size - 1.0)
    dp = np.where(dp == 0, 1e-300, dp)
    radii = np.maximum(np.round(mult_est) * np.abs(p / dp), 1e-12)
    order = np.argsort(roots.real + 1e-6 * roots.imag)
    used = np.zeros(roots.size, dtype=bool)
    centers, mults = [], []
    for i in order:
        if used[i]:
            continue
        group = [i]
        used[i] = True
        grown = True
        while grown:
            grown = False
            for j in range(roots.size):
                if used[j]:
                    continue
                if any(abs(roots[j] - roots[g]) <= 3.0 * (radii[j] + radii[g])
                       for g in group):
                    group.append(j)
                    used[j] = True
                    grown = True
        centers.append(np.mean(roots[list(group)]))
        mults.append(len(group))
    return np.asarray(centers), np.asarray(mults, dtype=int)


def sylvester_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    p = np.trim_zeros(np.asarray(p, dtype=float), "f")
    q = np.trim_zeros(np.asarray(q, dtype=float), "f")
    m, k = p.size - 1, q.size - 1
    S = np.zeros((m + k, m + k))
    for i in range(k):
        S[i, i:i + m + 1] = p
    for i in range(m):
        S[k + i, i:i + k + 1] = q
    return S


def resultant(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.det(sylvester_matrix(p, q)))


def discriminant(p: np.ndarray) -> float:
    """disc(p) = (-1)^{m(m-1)/2} res(p, p') / lc(p)."""
    p = np.trim_zeros(np.asarray(p, dtype=float), "f")
    m = p.size - 1
    if m < 2:
        return 1.0
    dp = p[:-1] * np.arange(m, 0, -1)
    sign = -1.0 if (m * (m - 1) // 2) % 2 else 1.0
    return sign * resultant(p, dp) / p[0]


def dickson_reduction(coeffs: np.ndarray) -> np.ndarray:
    """Reduce a real palindromic chi(x) = x^{n+1} g(x + 1/x) to g.

    coeffs = [1, a1, ..., a_{n+1}, ..., a1, 1] of degree 2n+2; returns
    the monic real coefficients of g (degree n+1 in t = x + 1/x), using
    the Chebyshev-like basis P_0 = 2, P_1 = t, P_{m+1} = t P_m - P_{m-1}
    with x^m + x^{-m} = P_m(t).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    deg = coeffs.size - 1
    n = deg // 2 - 1
    # P_m(t) as monomial coefficient rows (degree m)
    P = [np.array([2.0]), np.array([1.0, 0.0])]
    for _ in range(2, n + 2):
        t_pm = np.append(P[-1], 0.0)
        pm1 = np.concatenate([np.zeros(t_pm.size - P[-2].size), P[-2]])
        P.append(t_pm - pm1)
    g = np.zeros(n + 2)
    # chi / x^{n+1} = sum_{j=0}^{n} a_j (x^{n+1-j} + x^{-(n+1-j)}) + a_{n+1}
    for j in range(n + 1):
        pm = P[n + 1 - j]
        g[-pm.size:] += coeffs[j] * pm
    g[-1] += coeffs[n + 1]
    return g
