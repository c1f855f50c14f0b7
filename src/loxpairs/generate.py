"""Random generation of loxodromic isometries and generic pairs.

Spectra are sampled away from the degenerate strata: radii in
[0.2, 0.9], eigenvalue classes separated in (Re, modulus), and (in the
quaternionic case) angles bounded away from the real axis, so the root
clustering downstream stays stable.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import LoxpairsError
from .genericity import genericity_report
from .hermitian import HermitianSpace
from .qmatrix import QArray, conjugate_by
from .spectral import _class_values, eigen_frame

RADIUS_RANGE = (0.2, 0.9)
ANGLE_FLOOR = 0.1
CLASS_SEPARATION = 1e-3
MAX_TRIES = 100


def _classes_separated(lams: np.ndarray) -> bool:
    pts = np.stack([lams.real, np.abs(lams)], axis=1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.max(np.abs(pts[i] - pts[j])) < CLASS_SEPARATION:
                return False
    return True


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


def random_loxodromic(space: HermitianSpace, rng) -> QArray:
    """Q E Q^-1 for a random isometry Q and regular diagonal E."""
    E = QArray.diag(_class_values(*random_spectrum(space, rng)))
    return conjugate_by(space.random_isometry(rng), E)


def generate_pair(space: HermitianSpace, seed: Optional[int] = None,
                  mode: str = "weak") -> Tuple[QArray, QArray]:
    """Random pair (A, B) passing the requested genericity predicate.

    mode "weak" accepts weakly non-singular pairs, "strong" requires
    non-singular ones.  Deterministic for a fixed seed.
    """
    if mode not in ("weak", "strong"):
        raise LoxpairsError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        A = random_loxodromic(space, rng)
        B = random_loxodromic(space, rng)
        fa, fb = eigen_frame(space, QArray.stack([A, B]))
        rep, = genericity_report(space, [fa], [fb])
        if mode == "strong" and not rep.nonsingular:
            continue
        if rep.weakly_nonsingular:
            return A, B
    raise LoxpairsError(
        f"no {mode}-generic pair found in {MAX_TRIES} attempts")
