"""Numerical toolkit for pairs of loxodromic isometries of complex and
quaternionic hyperbolic space: conjugacy invariants, constructive
conjugacy testing, and surface-group representations from twist-bend
parameters."""

from .hermitian import HermitianSpace
from .qmatrix import QArray

__all__ = ["HermitianSpace", "QArray"]
__version__ = "0.1.0"
