"""Shared utilities for the DarkGates reproduction library.

This package holds the small building blocks used across every other
subpackage: frequency scale factors, input validation, frequency grids,
the library's exception hierarchy and its payload codec.
"""

from repro.common.errors import (
    ConfigurationError,
    ConstraintViolation,
    ReproError,
    SimulationError,
)
from repro.common.grid import FrequencyGrid
from repro.common.units import GHZ, MHZ
from repro.common.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ConstraintViolation",
    "SimulationError",
    "GHZ",
    "MHZ",
    "FrequencyGrid",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
]
