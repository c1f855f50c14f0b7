"""Random generation of loxodromic isometries and generic pairs.

Spectra are sampled away from the degenerate strata: radii in
[0.2, 0.9], eigenvalue classes separated in (Re, modulus), and (in the
quaternionic case) angles bounded away from the real axis, so the root
clustering downstream stays stable.

An element is built as A = Q E Q^-1 from its spectrum E and an isometry
Q, so its frame is known without an eigen-solve: `random_loxodromic`
returns it beside A, and `generate_pair` runs the genericity predicates
on these frames.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import LoxpairsError
from .genericity import genericity_report
from .hermitian import HermitianSpace
from .qmatrix import QArray, conjugate_by
from .spectral import LoxodromicFrame, _class_values

RADIUS_RANGE = (0.2, 0.9)
ANGLE_FLOOR = 0.1
CLASS_SEPARATION = 1e-3
MAX_TRIES = 100


def _classes_separated(lams: np.ndarray) -> bool:
    pts = np.stack([lams.real, np.abs(lams)], axis=1)
    gap = np.max(np.abs(pts[:, None] - pts[None]), axis=-1)
    return not np.any(gap[np.triu_indices(len(pts), 1)] < CLASS_SEPARATION)


def random_spectrum(space: HermitianSpace, rng) -> Tuple[float, float,
                                                         np.ndarray]:
    """(r, theta, phis) of a regular loxodromic spectrum."""
    for _ in range(256):
        r = rng.uniform(*RADIUS_RANGE)
        if space.field == "quaternion":
            th = rng.uniform(ANGLE_FLOOR, np.pi - ANGLE_FLOOR)
            phis = np.sort(rng.uniform(ANGLE_FLOOR, np.pi - ANGLE_FLOOR,
                                       space.n - 1))
        else:
            th = rng.uniform(-np.pi, np.pi)
            phis = np.sort(rng.uniform(-np.pi, np.pi, space.n - 1))
        if _classes_separated(_class_values(r, th, phis)):
            return r, th, phis
    raise LoxpairsError("could not sample a regular spectrum")


def random_loxodromic(space: HermitianSpace, rng) -> Tuple[
        QArray, LoxodromicFrame]:
    """A = Q E Q^-1 for a random isometry Q and regular diagonal E, and
    the frame of A.

    In the standard basis E = diag(r e^{i theta}, e^{i phi_k},
    e^{i theta}/r) is its own frame: e_0 and e_n are null with
    <e_0, e_n> = 1, the e_k between are unit positive, and the phi_k
    come sorted, eigen_frame's column order.  Q preserves the form, so Q
    is the frame of A.
    """
    r, th, phis = random_spectrum(space, rng)
    Q = space.random_isometry(rng)
    frame, = LoxodromicFrame.stack(space, [r], [th], phis[None],
                                   QArray(Q.a[None], Q.b[None]))
    return conjugate_by(Q, QArray.diag(_class_values(r, th, phis))), frame


def generate_pair(space: HermitianSpace, seed: Optional[int] = None,
                  mode: str = "weak") -> Tuple[QArray, QArray]:
    """Random pair (A, B) passing the requested genericity predicate.

    mode "weak" accepts weakly non-singular pairs, "strong" requires
    non-singular ones, whose four fixed-point lifts have rank 4, so it
    needs n >= 3.  Each try draws A and B by random_loxodromic and tests
    their construction frames, with no eigen-solve.  Deterministic for a
    fixed seed.  An n whose sample numpy cannot allocate raises
    LoxpairsError.
    """
    if mode not in ("weak", "strong"):
        raise LoxpairsError(f"unknown mode {mode!r}")
    if mode == "strong" and space.n < 3:
        raise LoxpairsError(
            f"strong mode needs n >= 3: four fixed-point lifts cannot "
            f"have rank 4 in dimension {space.dim}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:   # a negative or non-integer seed
        raise LoxpairsError(f"bad seed {seed!r}: {exc}") from exc
    for _ in range(MAX_TRIES):
        try:
            A, fa = random_loxodromic(space, rng)
            B, fb = random_loxodromic(space, rng)
        except MemoryError as exc:
            raise LoxpairsError(f"n = {space.n} is too large: {exc}") from exc
        rep, = genericity_report(space, [fa], [fb])
        if mode == "strong" and not rep.nonsingular:
            continue
        if rep.weakly_nonsingular:
            return A, B
    raise LoxpairsError(
        f"no {mode}-generic pair found in {MAX_TRIES} attempts")
