"""Declarative process-variation distributions over named silicon knobs.

A :class:`ParameterVariation` describes how one silicon parameter varies die
to die — which knob, which distribution family, and its spread — as a
frozen, hashable, JSON-round-tripping spec.  A :class:`VariationModel`
collects several of them and optionally correlates their draws through a
correlation matrix factored by the small Cholesky helper
:func:`cholesky_factor` (leaky dice tend to be fast dice, slow dice tend to
have high Vmin, and so on).

Every distribution is expressed as a deterministic transform of standard
normal draws, so correlation composes cleanly: the model draws one
``(count, knobs)`` standard-normal matrix from a seeded
:class:`numpy.random.Generator`, mixes it with the Cholesky factor, and
pushes each column through its parameter's transform.  Fixing the seed
therefore fixes every sampled die bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_non_negative

#: The silicon knobs a die may vary, with their nominal values.  The names
#: are exactly the fields of :class:`repro.variation.sampler.DieVariation`.
NOMINAL_PARAMETERS: Dict[str, float] = {
    "leakage_scale": 1.0,
    "leakage_kt_delta_per_c": 0.0,
    "vf_offset_v": 0.0,
    "vmin_offset_v": 0.0,
    "thermal_resistance_scale": 1.0,
    "powergate_resistance_scale": 1.0,
}

#: Knobs that must stay strictly positive (they multiply physical models).
POSITIVE_PARAMETERS: Tuple[str, ...] = (
    "leakage_scale",
    "thermal_resistance_scale",
    "powergate_resistance_scale",
)

#: Distribution families supported by :class:`ParameterVariation`.
DISTRIBUTIONS: Tuple[str, ...] = ("normal", "lognormal", "truncated_normal")


@dataclass(frozen=True)
class ParameterVariation(Codec):
    """How one silicon knob varies die to die.

    Parameters
    ----------
    parameter:
        Knob name; one of :data:`NOMINAL_PARAMETERS`.
    distribution:
        ``"normal"`` (``center + sigma * z``), ``"lognormal"``
        (``center * exp(sigma * z)``; *center* is the median) or
        ``"truncated_normal"`` (a normal clipped to ``[lower, upper]``).
    center:
        Location of the distribution (mean for normal, median for
        lognormal).  Defaults to the knob's nominal value.
    sigma:
        Spread: the standard deviation of the underlying normal.
    lower / upper:
        Optional clip bounds applied to the transformed values.  At least
        one is required for ``"truncated_normal"``.
    """

    parameter: str
    distribution: str = "normal"
    center: Optional[float] = None
    sigma: float = 0.0
    lower: Optional[float] = None
    upper: Optional[float] = None

    def __post_init__(self) -> None:
        if self.parameter not in NOMINAL_PARAMETERS:
            raise ConfigurationError(
                f"unknown variation parameter {self.parameter!r}; "
                f"known: {sorted(NOMINAL_PARAMETERS)}"
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}; "
                f"known: {list(DISTRIBUTIONS)}"
            )
        ensure_non_negative(self.sigma, "sigma")
        if self.center is None:
            object.__setattr__(
                self, "center", NOMINAL_PARAMETERS[self.parameter]
            )
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ConfigurationError("lower bound must not exceed upper")
        if self.distribution == "truncated_normal":
            if self.lower is None and self.upper is None:
                raise ConfigurationError(
                    "truncated_normal needs a lower and/or upper bound"
                )

    def transform(self, normals: np.ndarray) -> np.ndarray:
        """Map standard-normal draws to parameter values (vectorized)."""
        z = np.asarray(normals, dtype=float)
        if self.distribution == "lognormal":
            values = self.center * np.exp(self.sigma * z)
        else:
            values = self.center + self.sigma * z
        if self.lower is not None or self.upper is not None:
            values = np.clip(values, self.lower, self.upper)
        return values


def cholesky_factor(matrix: Sequence[Sequence[float]]) -> np.ndarray:
    """Lower-triangular Cholesky factor of a validated correlation matrix.

    The matrix must be square, symmetric, carry a unit diagonal, and be
    positive definite; violations raise
    :class:`~repro.common.errors.ConfigurationError` instead of leaking
    numpy's :class:`~numpy.linalg.LinAlgError`.
    """
    corr = np.asarray(matrix, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ConfigurationError(
            f"correlation matrix must be square, got shape {corr.shape}"
        )
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ConfigurationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise ConfigurationError("correlation matrix needs a unit diagonal")
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise ConfigurationError(
            "correlation matrix is not positive definite"
        ) from None


@dataclass(frozen=True)
class VariationModel(Codec):
    """A set of parameter variations, optionally correlated.

    Parameters
    ----------
    variations:
        One :class:`ParameterVariation` per varied knob (unique knobs).
    correlation:
        Optional correlation matrix between the *underlying standard
        normals* of the variations, in ``variations`` order.  ``None``
        draws every knob independently.
    """

    variations: Tuple[ParameterVariation, ...]
    correlation: Optional[Tuple[Tuple[float, ...], ...]] = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variations", tuple(self.variations))
        if not self.variations:
            raise ConfigurationError(
                "a variation model needs at least one parameter variation"
            )
        names = [variation.parameter for variation in self.variations]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate variation parameters in {names}"
            )
        if self.correlation is not None:
            rows = tuple(tuple(float(x) for x in row) for row in self.correlation)
            object.__setattr__(self, "correlation", rows)
            factor = cholesky_factor(rows)
            if factor.shape[0] != len(self.variations):
                raise ConfigurationError(
                    f"correlation matrix is {factor.shape[0]}x{factor.shape[0]} "
                    f"but the model varies {len(self.variations)} parameters"
                )

    @property
    def parameters(self) -> Tuple[str, ...]:
        """Varied knob names, in draw order."""
        return tuple(variation.parameter for variation in self.variations)

    def cholesky(self) -> Optional[np.ndarray]:
        """Cholesky factor of the correlation matrix (``None`` if diagonal)."""
        if self.correlation is None:
            return None
        return cholesky_factor(self.correlation)

    def draw(self, count: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Draw *count* dice worth of parameter values from *rng*.

        One ``(count, knobs)`` standard-normal matrix is drawn, correlated
        through the Cholesky factor, and pushed through each parameter's
        transform — so a fixed seed yields bitwise-identical populations.
        """
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        normals = rng.standard_normal((count, len(self.variations)))
        factor = self.cholesky()
        if factor is not None:
            normals = normals @ factor.T
        return {
            variation.parameter: variation.transform(normals[:, column])
            for column, variation in enumerate(self.variations)
        }


def skylake_process_variation() -> VariationModel:
    """A plausible 14 nm client-die variation model.

    Spreads are in the range process literature quotes for mature FinFET
    nodes; the correlation block encodes the classic process corners: leaky
    dice are fast dice (leakage up, V/F requirement down) and slow dice have
    higher Vmin.  Thermal-interface quality and power-gate resistance vary
    independently of the transistor corner.
    """
    variations = (
        ParameterVariation("leakage_scale", "lognormal", sigma=0.20),
        ParameterVariation(
            "leakage_kt_delta_per_c", "normal", sigma=0.0012,
            lower=-0.004, upper=0.004,
        ),
        ParameterVariation(
            "vf_offset_v", "normal", sigma=0.020, lower=-0.06, upper=0.06
        ),
        ParameterVariation(
            "vmin_offset_v", "normal", sigma=0.012, lower=-0.05, upper=0.05
        ),
        ParameterVariation("thermal_resistance_scale", "lognormal", sigma=0.05),
        ParameterVariation("powergate_resistance_scale", "lognormal", sigma=0.08),
    )
    correlation = (
        (1.00, 0.30, -0.55, -0.25, 0.0, 0.0),
        (0.30, 1.00, -0.20, -0.10, 0.0, 0.0),
        (-0.55, -0.20, 1.00, 0.45, 0.0, 0.0),
        (-0.25, -0.10, 0.45, 1.00, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 1.00, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0, 1.00),
    )
    return VariationModel(variations=variations, correlation=correlation)
