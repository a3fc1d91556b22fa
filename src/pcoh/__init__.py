"""Desirability over Hermitian quadratic-form gambles, and everything dual to it.

Submodules:

* :mod:`pcoh.linalg`   -- Hermitian kernel (checked eigendecomposition, tensor ops, partial trace)
* :mod:`pcoh.sdp`      -- dense interior-point semidefinite solver
* :mod:`pcoh.gambles`  -- P-coherence, natural extension, previsions, credal duals
* :mod:`pcoh.quantum`  -- states, Born rule, conditioning, evolution, SIC rewrite
* :mod:`pcoh.entangle` -- witnesses, PPT, Dutch-book certificates, CHSH
* :mod:`pcoh.charges`  -- signed discrete charges over product supports
* :mod:`pcoh.realsos`  -- bivariate SOS certificates and moment-matrix duals
* :mod:`pcoh.cli`      -- the ``pcoh`` command
"""

from .errors import (
    ConditioningError,
    DimensionMismatchError,
    PcohError,
    SolverFailure,
    ValidationError,
)
from .gambles import AssessmentSet, CredalSet, Gamble
from .quantum import DensityState, ProjectiveMeasurement

__all__ = [
    "AssessmentSet",
    "ConditioningError",
    "CredalSet",
    "DensityState",
    "DimensionMismatchError",
    "Gamble",
    "PcohError",
    "ProjectiveMeasurement",
    "SolverFailure",
    "ValidationError",
]

__version__ = "0.1.0"
