"""Informational completeness of truncated continuous-variable measurements.

Builds quadrature and photon-counting POVM operators on finite Fock
subspaces, counts the linearly independent elements they induce, checks
the closed-form rule m(2d-m), and verifies completeness operationally via
simulated homodyne data and maximum-likelihood reconstruction.
"""

from . import completeness, fock, povm, tomo
from .completeness import *  # noqa: F401,F403
from .fock import *  # noqa: F401,F403
from .povm import *  # noqa: F401,F403
from .tomo import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = completeness.__all__ + fock.__all__ + povm.__all__ + tomo.__all__
