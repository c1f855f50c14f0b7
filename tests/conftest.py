from functools import reduce

import numpy as np
import pytest

from loxpairs.generate import generate_pair
from loxpairs.genericity import genericity_report
from loxpairs.gram import normalize_lifts
from loxpairs.hermitian import HermitianSpace
from loxpairs.invariants import pair_invariants
from loxpairs.qmatrix import QArray, quaternionic_rank
from loxpairs.spectral import eigen_frame


# An independent model of quaternion arithmetic on real 4-vectors
# (w, x, y, z), the reference for the QArray algebra in the tests.

def as_matrix(q) -> np.ndarray:
    """Left-multiplication model of H on R^4: as_matrix(q) @ p = q p."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])


def hmul(*qs) -> np.ndarray:
    """The product of real 4-vectors, left to right."""
    return reduce(lambda p, q: as_matrix(p) @ q, qs)


def hconj(q) -> np.ndarray:
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def hinv(q) -> np.ndarray:
    return hconj(q) / np.dot(q, q)


def pair_stage(space, fa, fb, anchor="standard"):
    """The genericity report, normalized tuple and invariant tuple of the
    pair of frames (fa, fb), each stage run on a list of one."""
    reps = genericity_report(space, [fa], [fb])
    tuples = normalize_lifts(space, reps, anchor)
    invs = pair_invariants(space, [fa], [fb], reps, tuples)
    return reps[0], tuples[0], invs[0]


def null_lift(space, rng) -> QArray:
    """A random null vector (w1, .., wn, 1) with 2 Re(w1) = -sum |w_i|^2."""
    z = space._random_qarray(rng, space.dim)
    z.a[-1], z.b[-1] = 1.0, 0.0
    mid = float(np.sum(np.abs(z.a[1:-1]) ** 2 + np.abs(z.b[1:-1]) ** 2))
    z.a[0] = -mid / 2.0 + 1j * z.a[0].imag
    return z


def maps_projectively(space, h, zs, ws) -> bool:
    """Whether h is an isometry carrying each z onto its w projectively."""
    return space.is_isometry(h, tol=1e-6 * (1 + h.max_abs()) ** 2) \
        and all(quaternionic_rank(QArray.from_columns([h @ z, w]),
                                  tol=1e-6) == 1 for z, w in zip(zs, ws))


def hunit(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


@pytest.fixture(scope="session")
def qspace():
    return HermitianSpace(3, "quaternion")


@pytest.fixture(scope="session")
def cspace():
    return HermitianSpace(3, "complex")


@pytest.fixture(scope="session", params=["quaternion", "complex"])
def space(request):
    return HermitianSpace(3, request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def qpair(qspace):
    return generate_pair(qspace, seed=7, mode="strong")


@pytest.fixture(scope="session")
def cpair(cspace):
    return generate_pair(cspace, seed=7, mode="strong")


@pytest.fixture(scope="session")
def qframes(qspace, qpair):
    A, B = qpair
    return eigen_frame(qspace, A), eigen_frame(qspace, B)
