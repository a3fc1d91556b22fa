"""Desirability over Hermitian quadratic-form gambles, and everything dual to it.

Submodules:

* :mod:`pcoh.linalg`   -- Hermitian kernel (checked eigendecomposition, tensor ops, partial trace)
* :mod:`pcoh.sdp`      -- dense interior-point semidefinite solver
* :mod:`pcoh.gambles`  -- P-coherence, natural extension, previsions
* :mod:`pcoh.quantum`  -- states, Born rule, conditioning, evolution, SIC rewrite
* :mod:`pcoh.entangle` -- witnesses, PPT, Dutch-book certificates, CHSH
* :mod:`pcoh.charges`  -- signed discrete charges over product supports
* :mod:`pcoh.realsos`  -- bivariate SOS certificates and moment-matrix duals
* :mod:`pcoh.cli`      -- the ``pcoh`` command

The domain types re-exported here load their modules on first access
(PEP 562), so ``import pcoh`` alone loads only :mod:`pcoh.errors`.
"""

import importlib

from .errors import (
    ConditioningError,
    DimensionMismatchError,
    PcohError,
    SolverFailure,
    ValidationError,
)

_LAZY = {
    "AssessmentSet": "gambles",
    "Gamble": "gambles",
    "DensityState": "quantum",
    "ProjectiveMeasurement": "quantum",
}

__all__ = [
    "AssessmentSet",
    "ConditioningError",
    "DensityState",
    "DimensionMismatchError",
    "Gamble",
    "PcohError",
    "ProjectiveMeasurement",
    "SolverFailure",
    "ValidationError",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
