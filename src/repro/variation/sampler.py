"""Vectorized die-population sampling.

:class:`DiePopulationSampler` draws N dice from a
:class:`~repro.variation.distributions.VariationModel` as plain numpy
arrays — one array per silicon knob — held by a :class:`DiePopulation`.
The population materialises in two interchangeable ways:

* ``population.specs(base_spec)`` — N frozen ``SystemSpec.variant()``s, one
  per die, each carrying its :class:`DieVariation`.  This is the *reference
  path*: every die builds its own firmware system and steps through the
  engine like any other spec.
* The raw arrays themselves — consumed by
  :meth:`repro.sim.dynamics.BatchedDynamicsSimulator.run_population`, which
  injects them straight into the batched (lockstep) dynamics state with no
  per-die Python objects.  This is the *fast path*.

Both paths funnel every knob through the same element-wise transforms, so a
given seed produces bit-identical trajectories either way.

Seeded draws are **block-based** for shard determinism: die *i* of a
seed-``s`` population is always drawn from the fixed-size sampling block
``i // SAMPLE_BLOCK_DICE``, whose generator derives from
``np.random.SeedSequence(entropy=s, spawn_key=(block,))``.  A die's knobs
therefore depend only on ``(seed, die index)`` — :meth:`sample_range` yields
bit-identical dice whether a shard is drawn alone or as part of the full
population, and a seed-``s`` population is a prefix of any larger seed-``s``
population.  This is the foundation of the streaming population engine
(:mod:`repro.variation.streaming`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive
from repro.variation.distributions import (
    NOMINAL_PARAMETERS,
    POSITIVE_PARAMETERS,
    VariationModel,
)

#: Dice per deterministic sampling block.  Seeded draws always generate
#: whole blocks (then slice), so the value is part of the sampling contract:
#: changing it changes which dice a seed yields.
SAMPLE_BLOCK_DICE = 1024


@dataclass(frozen=True)
class DieVariation(Codec):
    """The silicon knobs of one sampled die, relative to the nominal part.

    Parameters
    ----------
    leakage_scale:
        Multiplier on every leakage power term of the die.
    leakage_kt_delta_per_c:
        Additive shift of the exponential leakage temperature coefficient
        ``kt``.
    vf_offset_v:
        Additive shift of the silicon's V/F voltage requirement (a slow die
        needs more voltage per bin; a fast die less).
    vmin_offset_v:
        Additive shift of the die's minimum functional voltage (used by SKU
        binning).
    thermal_resistance_scale:
        Multiplier on the junction-to-ambient thermal resistance (die
        attach / TIM quality).
    powergate_resistance_scale:
        Multiplier on the power-gate on-resistance.  Only gated parts pay
        for it (as extra IR-drop guardband); bypassed parts are immune —
        one of the variability upsides of the DarkGates bypass.
    """

    leakage_scale: float = 1.0
    leakage_kt_delta_per_c: float = 0.0
    vf_offset_v: float = 0.0
    vmin_offset_v: float = 0.0
    thermal_resistance_scale: float = 1.0
    powergate_resistance_scale: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.leakage_scale, "leakage_scale")
        ensure_positive(self.thermal_resistance_scale, "thermal_resistance_scale")
        ensure_positive(
            self.powergate_resistance_scale, "powergate_resistance_scale"
        )

    @property
    def is_nominal(self) -> bool:
        """True when every knob sits at its nominal value."""
        return all(
            getattr(self, name) == nominal
            for name, nominal in NOMINAL_PARAMETERS.items()
        )


#: The nominal die: every knob at its reference value.
NOMINAL_DIE = DieVariation()


class DiePopulation:
    """N sampled dice held as one numpy array per silicon knob.

    Knobs absent from the sampled mapping sit at their nominal values.  The
    arrays are exposed read-only as attributes named like the
    :class:`DieVariation` fields (``population.leakage_scale`` and so on).

    Parameters
    ----------
    values:
        Knob name -> ``(count,)`` array of sampled values.
    seed:
        The seed the population was drawn with (``None`` when the caller
        supplied an external generator); recorded so any population run can
        be replayed exactly.
    """

    leakage_scale: np.ndarray
    leakage_kt_delta_per_c: np.ndarray
    vf_offset_v: np.ndarray
    vmin_offset_v: np.ndarray
    thermal_resistance_scale: np.ndarray
    powergate_resistance_scale: np.ndarray

    def __init__(
        self, values: Mapping[str, np.ndarray], seed: Optional[int] = None
    ) -> None:
        unknown = set(values) - set(NOMINAL_PARAMETERS)
        if unknown:
            raise ConfigurationError(
                f"unknown die parameter(s) {sorted(unknown)}; "
                f"known: {sorted(NOMINAL_PARAMETERS)}"
            )
        lengths = {len(np.asarray(column)) for column in values.values()}
        if len(lengths) != 1:
            raise ConfigurationError(
                "every sampled parameter column must have the same length"
            )
        (count,) = lengths
        if count < 1:
            raise ConfigurationError("a population needs at least one die")
        self._count = count
        self._seed = seed
        for name, nominal in NOMINAL_PARAMETERS.items():
            if name in values:
                column = np.asarray(values[name], dtype=float).copy()
            else:
                column = np.full(count, nominal, dtype=float)
            if name in POSITIVE_PARAMETERS and (column <= 0.0).any():
                raise ConfigurationError(
                    f"{name} must stay strictly positive; use a lognormal or "
                    f"bounded distribution"
                )
            column.flags.writeable = False
            setattr(self, name, column)

    # -- introspection -----------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of dice in the population."""
        return self._count

    @property
    def seed(self) -> Optional[int]:
        """Seed the population was drawn with (``None`` if externally fed)."""
        return self._seed

    def __len__(self) -> int:
        return self._count

    def column(self, parameter: str) -> np.ndarray:
        """The sampled values of one knob."""
        if parameter not in NOMINAL_PARAMETERS:
            raise ConfigurationError(
                f"unknown die parameter {parameter!r}; "
                f"known: {sorted(NOMINAL_PARAMETERS)}"
            )
        return getattr(self, parameter)

    # -- materialisation ---------------------------------------------------------------

    def die(self, index: int) -> DieVariation:
        """One die as a scalar :class:`DieVariation`."""
        if not 0 <= index < self._count:
            raise ConfigurationError(
                f"die index {index} out of range for {self._count} dice"
            )
        return DieVariation(
            **{
                name: float(getattr(self, name)[index])
                for name in NOMINAL_PARAMETERS
            }
        )

    def dice(self) -> Iterator[DieVariation]:
        """Iterate the population die by die."""
        return (self.die(index) for index in range(self._count))

    def slice(self, start: int, stop: int) -> "DiePopulation":
        """Dice ``[start, stop)`` as a new population (seed not carried).

        The slice's seed is unset on purpose: a sub-range is replayable via
        ``(parent seed, start, stop)`` — recording the parent seed alone
        would claim the slice equals a fresh ``sample(stop - start, seed)``.
        """
        if not 0 <= start < stop <= self._count:
            raise ConfigurationError(
                f"bad population slice [{start}, {stop}): indices must "
                f"satisfy 0 <= start < stop <= count ({self._count})"
            )
        return DiePopulation(
            {
                name: getattr(self, name)[start:stop]
                for name in NOMINAL_PARAMETERS
            }
        )

    def specs(self, base_spec: "Any") -> List["Any"]:
        """The reference-path materialisation: one spec variant per die.

        *base_spec* is a :class:`~repro.core.spec.SystemSpec`; each variant
        carries the die's :class:`DieVariation` and a die-stamped name so
        the variants stay distinct study-grid keys.
        """
        return [
            base_spec.variant(
                name=f"{base_spec.name}#die{index}", die_variation=self.die(index)
            )
            for index in range(self._count)
        ]


class DiePopulationSampler:
    """Draws seeded die populations from a variation model.

    Parameters
    ----------
    model:
        The declarative variation model to sample.
    """

    def __init__(self, model: VariationModel) -> None:
        self._model = model

    @property
    def model(self) -> VariationModel:
        """The variation model being sampled."""
        return self._model

    def sample(
        self,
        count: int,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> DiePopulation:
        """Draw *count* dice.

        Passing *seed* (the normal path) records it on the population so
        the draw can be replayed, and draws block-wise so the population is
        shard-stable: ``sample(count, seed)`` equals the concatenation of
        ``sample_range`` over any partition of ``[0, count)``.  Passing an
        explicit *rng* instead draws a single legacy stream and leaves the
        population's seed unset — that path is **not** shard-stable.
        """
        if rng is not None and seed is not None:
            raise ConfigurationError("pass either seed or rng, not both")
        if rng is None:
            if count < 1:
                raise ConfigurationError("count must be >= 1")
            return self.sample_range(0, count, seed=seed)
        return DiePopulation(self._model.draw(count, rng), seed=None)

    def sample_range(
        self, start: int, stop: int, seed: Optional[int]
    ) -> DiePopulation:
        """Draw dice ``[start, stop)`` of the seed-*seed* population.

        Bit-identical to slicing ``sample(n, seed)`` for any ``n >= stop``:
        each fixed-size block of :data:`SAMPLE_BLOCK_DICE` dice is drawn
        whole from its own spawned generator
        (``SeedSequence(entropy=seed, spawn_key=(block,))``) and sliced, so
        a die's knobs depend only on ``(seed, die index)``.  This is what
        lets streaming shards run anywhere — any process, any shard size —
        and still see exactly the dice of the monolithic draw.
        """
        if seed is None:
            # An unseeded population still pins a deterministic stream:
            # entropy draws would make shards of "the same" population
            # disagree across processes.
            seed = 0
        if start < 0 or stop <= start:
            raise ConfigurationError(
                f"bad die range [{start}, {stop}): need 0 <= start < stop"
            )
        first_block = start // SAMPLE_BLOCK_DICE
        last_block = (stop - 1) // SAMPLE_BLOCK_DICE
        blocks = [
            self._draw_block(int(seed), block)
            for block in range(first_block, last_block + 1)
        ]
        offset = first_block * SAMPLE_BLOCK_DICE
        values = {
            name: np.concatenate([block[name] for block in blocks])[
                start - offset : stop - offset
            ]
            for name in blocks[0]
        }
        return DiePopulation(values, seed=seed)

    def _draw_block(self, seed: int, block: int) -> Dict[str, np.ndarray]:
        """One whole sampling block (the unit of seeded determinism)."""
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
        rng = np.random.default_rng(sequence)
        return self._model.draw(SAMPLE_BLOCK_DICE, rng)
