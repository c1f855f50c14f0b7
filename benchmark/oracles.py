"""Output checks in numpy only, on the complex embedding.

Each check returns None when the answer is right, or a short reason.
A reason that starts with NAN marks a NaN that got out of the library
(counted with the untyped errors); one that starts with MISSED marks a
negative answer for an input that is positive by construction (a false
rejection); any other reason is a false claim: a positive answer whose
certificate fails, or one given for a negative input.
"""

from __future__ import annotations

import numpy as np

from inputs import embed, form_embedded, loxodromic_classes, split

GATE = 1e-6
# the relation is a product of eight generators with condition numbers up
# to about 1e6; evaluating it in float64, here or in the library, moves
# the residual by about GATE, so a reported residual under GATE is a false
# claim only when the recomputed one is this many times over it
CLAIM_MARGIN = 10.0
NAN = "nan in"
MISSED = "missed:"


def _bad(*arrays) -> bool:
    return not all(np.all(np.isfinite(x)) for x in arrays)


def _amax(E: np.ndarray) -> float:
    return float(np.max(np.abs(E)))


def not_isometry(E: np.ndarray, n: int) -> str | None:
    H = form_embedded(n)
    dev = _amax(E.conj().T @ H @ E - H)
    if dev > GATE * (1.0 + _amax(E) ** 2):
        return f"not an isometry ({dev:.2e})"
    return None


def conjugator(C: np.ndarray, n: int, pairs) -> str | None:
    """C X C^-1 = X' for every (X, X') and C preserves the form."""
    if _bad(C):
        return f"{NAN} conjugator"
    Ci = np.linalg.inv(C)
    scale = 1.0 + max(_amax(Xp) for _, Xp in pairs)
    resid = max(_amax(C @ X @ Ci - Xp) for X, Xp in pairs)
    if resid > GATE * scale:
        return f"conjugator residual {resid:.2e}"
    return not_isometry(C, n)


def _times_j(v: np.ndarray) -> np.ndarray:
    a, b = split(v)
    return embed(-np.conj(b), np.conj(a))


def same_line(u: np.ndarray, w: np.ndarray) -> bool:
    """u and w span one quaternionic line: [u, uj, w, wj] has complex
    rank 2."""
    u = u / np.linalg.norm(u)
    w = w / np.linalg.norm(w)
    s = np.linalg.svd(np.stack([u, _times_j(u), w, _times_j(w)], axis=1),
                      compute_uv=False)
    return s[2] <= GATE * s[0]


def congruence(h: np.ndarray, n: int, zs, ws) -> str | None:
    """h z_i = w_i projectively for every i, and h preserves the form."""
    if _bad(h):
        return f"{NAN} congruence"
    for z, w in zip(zs, ws):
        if not same_line(h @ z, w):
            return "congruence misses a point"
    return not_isometry(h, n)


def char_coeffs(E: np.ndarray, n: int) -> np.ndarray:
    """(a_1 .. a_{n+1}) of the embedded characteristic polynomial, from
    numpy eigenvalues."""
    return np.real(np.poly(np.linalg.eigvals(E)))[1:n + 2]


def real_trace(got, E: np.ndarray, n: int) -> str | None:
    got = np.asarray(got, dtype=float)
    if _bad(got):
        return f"{NAN} real trace"
    want = char_coeffs(E, n)
    err = float(np.max(np.abs(got - want)))
    if got.shape != want.shape or err > GATE * (1.0 + np.max(np.abs(want))):
        return f"real trace off by {err:.2e}"
    return None


def loxodromic(E: np.ndarray, field: str, n: int) -> str | None:
    if _bad(E):
        return f"{NAN} generated matrix"
    return not_isometry(E, n) or (
        None if loxodromic_classes(E, field) else "not loxodromic")


def commuting(K: np.ndarray, A: np.ndarray, n: int,
              spectrum: np.ndarray) -> str | None:
    """K commutes with A, preserves the form and has the requested
    eigenvalue classes (and their conjugates)."""
    if _bad(K):
        return f"{NAN} twist-bend"
    resid = _amax(K @ A - A @ K)
    if resid > GATE * (1.0 + _amax(A)) * (1.0 + _amax(K)):
        return f"twist-bend does not commute ({resid:.2e})"
    got = np.linalg.eigvals(K)
    want = np.concatenate([spectrum, np.conj(spectrum)])
    miss = max(float(np.min(np.abs(got - w))) for w in want)
    if miss > GATE * (1.0 + float(np.max(np.abs(want)))):
        return f"twist-bend spectrum misses its parameters by {miss:.2e}"
    return not_isometry(K, n)


def surface_relation(gens: dict, n: int, reported: float) -> str | None:
    """prod [a_h, b_h] = I recomputed from the generators, and every
    generator preserves the form."""
    eye = np.eye(2 * (n + 1))
    rel = eye
    for h in range(1, len(gens) // 2 + 1):
        a, b = gens[f"a{h}"], gens[f"b{h}"]
        rel = rel @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    if _bad(rel) or not np.isfinite(reported):
        return f"{NAN} surface generators"
    resid = _amax(rel - eye)
    if reported > GATE:
        return f"{MISSED} relation residual reported as {reported:.2e}"
    if resid > CLAIM_MARGIN * GATE:
        return f"relation residual {resid:.2e}, reported {reported:.2e}"
    for g in gens.values():
        why = not_isometry(g, n)
        if why:
            return why
    return None
