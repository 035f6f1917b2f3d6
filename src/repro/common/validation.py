"""Input validation helpers.

The model classes in this library are configured with many numeric
parameters (resistances, capacitances, frequencies, power limits).  A bad
parameter usually produces a silently wrong figure rather than a crash,
so constructors validate their inputs eagerly with the helpers below and
raise :class:`~repro.common.errors.ConfigurationError` with a message that
names the offending parameter.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional

from repro.common.errors import ConfigurationError


def ensure_positive(value: float, name: str) -> float:
    """Return *value* if it is a finite number strictly greater than zero."""
    _ensure_finite(value, name)
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Return *value* if it is a finite number greater than or equal to zero."""
    _ensure_finite(value, name)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_in_range(
    value: float, low: float, high: float, name: str
) -> float:
    """Return *value* if it lies in the inclusive range [*low*, *high*]."""
    _ensure_finite(value, name)
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be in [{low!r}, {high!r}], got {value!r}"
        )
    return value


def ensure_seed(value: Any, name: str = "seed") -> int:
    """Return *value* as an ``int`` if it is an integer >= 0.

    Python and numpy integers count; ``bool`` does not.  Seeds are hashed
    into run IDs, so a ``"7"`` or ``7.0`` accepted here would file runs
    that ``--seed 7`` never finds.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(f"{name} must be an int >= 0, got {value!r}")
    return int(value)


def seed_or_default(seed: Optional[int]) -> int:
    """*seed* as an ``int``, or 0 when the caller left it unseeded (``None``).

    The one unseeded default of every stochastic path (die populations,
    fleet ensembles, population cutoff queries, the CLI without
    ``--seed``): a fixed seed, not OS entropy, so an unseeded run draws
    the same dice in every process and replays under the same run IDs.
    """
    return 0 if seed is None else int(seed)


def _ensure_finite(value: float, name: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
