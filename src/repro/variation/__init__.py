"""Process-variation Monte Carlo substrate.

Real silicon is not the nominal die the rest of the library models: leakage,
V/F requirement, Vmin, thermal interface quality and power-gate resistance
all vary die to die, so the paper's bypass-versus-gated verdict at each TDP
level is really a statement about a *population* of parts.  This package
turns the repo's single-die models into population-scale studies:

* :mod:`repro.variation.distributions` — declarative, frozen
  :class:`ParameterVariation` specs over the named silicon knobs, optionally
  correlated through a small Cholesky covariance helper, collected into a
  :class:`VariationModel`.
* :mod:`repro.variation.sampler` — :class:`DiePopulationSampler` draws N
  dice as numpy arrays from a seeded :class:`numpy.random.Generator` and
  materialises them either as N ``SystemSpec.variant()``s (one system per
  die) or as stacked parameter arrays injected straight into the
  batched dynamics engine (the fast path — no per-die Python objects).
* :mod:`repro.variation.binning` — SKU binning rules (frequency / leakage /
  Vmin cutoffs mapped onto the parts of :mod:`repro.soc.skus`) producing
  yield fractions, bin populations and per-bin quantile metrics.
* :mod:`repro.variation.population` — :class:`PopulationStudy` /
  ``Study.over_population``: population x scenario x TDP sweeps through the
  study executor machinery, summarised as a JSON-round-tripping
  :class:`PopulationResult`.
* :mod:`repro.variation.streaming` — the sharded million-die engine:
  deterministic fixed-size die shards (bit-identical alone or inside the
  full population) condensed into mergeable online accumulators — exact
  frequency/limiting/yield statistics, one-histogram-bin-bounded continuous
  quantiles — so population studies run in O(shard), not O(population),
  memory.

``population`` and ``streaming`` are imported lazily (module
``__getattr__``) because they sit above :mod:`repro.analysis.study` /
:mod:`repro.sim` in the import graph, which themselves import this
package's sampler.
"""

from typing import Tuple

from repro.variation.binning import (
    BinReport,
    BinningPolicy,
    DieMetrics,
    SkuBin,
    die_metrics,
    skylake_binning_policy,
)
from repro.variation.distributions import (
    ParameterVariation,
    VariationModel,
    cholesky_factor,
    skylake_process_variation,
)
from repro.variation.sampler import (
    NOMINAL_DIE,
    DiePopulation,
    DiePopulationSampler,
    DieVariation,
)

#: Names resolved lazily from :mod:`repro.variation.population`.
_POPULATION_EXPORTS: Tuple[str, ...] = (
    "PopulationStudy",
    "PopulationResult",
    "PopulationCellResult",
    "SpecBinningResult",
)

#: Names resolved lazily from :mod:`repro.variation.streaming`.
_STREAMING_EXPORTS: Tuple[str, ...] = (
    "ShardPlan",
    "HistogramSpec",
    "ScalarAccumulator",
    "ScalarSummary",
    "StreamingCellShard",
    "StreamingCellResult",
    "StreamingBinningResult",
    "condense_population_traces",
    "merge_cell_shards",
    "weighted_percentile",
)


def __getattr__(name: str):
    if name in _POPULATION_EXPORTS:
        from repro.variation import population

        return getattr(population, name)
    if name in _STREAMING_EXPORTS:
        from repro.variation import streaming

        return getattr(streaming, name)
    raise AttributeError(  # repro-lint: disable=RPR005 -- PEP 562 module __getattr__ protocol requires AttributeError
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "ParameterVariation",
    "VariationModel",
    "cholesky_factor",
    "skylake_process_variation",
    "DieVariation",
    "NOMINAL_DIE",
    "DiePopulation",
    "DiePopulationSampler",
    "BinningPolicy",
    "SkuBin",
    "BinReport",
    "DieMetrics",
    "die_metrics",
    "skylake_binning_policy",
    "PopulationStudy",
    "PopulationResult",
    "PopulationCellResult",
    "SpecBinningResult",
    "ShardPlan",
    "HistogramSpec",
    "ScalarAccumulator",
    "ScalarSummary",
    "StreamingCellShard",
    "StreamingCellResult",
    "StreamingBinningResult",
    "condense_population_traces",
    "merge_cell_shards",
    "weighted_percentile",
]
