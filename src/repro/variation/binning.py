"""SKU binning: sorting a die population into sellable parts.

After manufacturing, every die is tested and *binned*: fast, low-leakage
dice become the premium SKU, slower dice the mainstream part, and dice that
miss every cutoff are scrapped.  This module reproduces that flow on a
sampled :class:`~repro.variation.sampler.DiePopulation`:

* :func:`die_metrics` derives the three classic test metrics per die —
  Vmax-limited single-core Fmax, reference-point leakage, and Vmin — as
  vectorized arrays from a nominal system plus the population's knobs;
* :class:`BinningPolicy` applies an ordered list of :class:`SkuBin` cutoff
  rules (first match wins, leftovers are scrap), which makes the assignment
  a *partition* by construction: every die lands in exactly one bin or in
  scrap;
* :meth:`BinningPolicy.report` summarises counts, yield fractions and
  per-bin metric quantiles as a JSON-round-tripping :class:`BinReport`.

Bins reference the datasheet registry of :mod:`repro.soc.skus`
(:data:`~repro.soc.skus.SKU_DESCRIPTIONS`), so a bin is not just a label —
it is one of the paper's evaluated parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.pmu.dvfs import CpuDemand, die_voltage_offsets
from repro.pmu.pcode import Pcode
from repro.soc.skus import SKU_DESCRIPTIONS
from repro.variation.sampler import DiePopulation

#: Pseudo-bin name for dice that miss every cutoff.
SCRAP_BIN = "scrap"

#: Metric quantiles reported per bin.
_QUANTILES = (5.0, 50.0, 95.0)


@dataclass(frozen=True)
class DieMetrics:
    """Per-die test metrics of a population (arrays of equal length)."""

    fmax_hz: np.ndarray
    leakage_w: np.ndarray
    vmin_v: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.fmax_hz) == len(self.leakage_w) == len(self.vmin_v)):
            raise ConfigurationError("metric columns must have equal lengths")

    @property
    def count(self) -> int:
        """Number of dice measured."""
        return len(self.fmax_hz)

    def as_mapping(self) -> Dict[str, np.ndarray]:
        """Metric name -> column, for quantile reporting."""
        return {
            "fmax_hz": self.fmax_hz,
            "leakage_w": self.leakage_w,
            "vmin_v": self.vmin_v,
        }


def die_metrics(
    pcode: Pcode,
    population: DiePopulation,
    demand: Optional[CpuDemand] = None,
) -> DieMetrics:
    """Vectorized test metrics of *population* measured on *pcode*'s design.

    *pcode* must be the nominal system (it supplies the nominal candidate
    table the per-die voltage offsets perturb); *demand* defaults to the
    single-core virus-free demand classic speed binning uses.  Fmax is the
    highest grid bin whose shifted VR voltage clears Vmax (0 Hz when a die
    clears none — scrap material); leakage is the die's reference-point
    leakage; Vmin is the die's shifted minimum functional voltage.
    """
    if pcode.die_variation is not None:
        raise ConfigurationError(
            "die_metrics needs the nominal system; per-die variation comes "
            "from the population"
        )
    resolved = demand if demand is not None else CpuDemand(active_cores=1)
    table = pcode.dvfs_policy.candidate_table(resolved)
    processor = pcode.processor
    vr_offset, _ = die_voltage_offsets(
        population.vf_offset_v,
        population.powergate_resistance_scale,
        processor.die.cores[0].power_gate.on_resistance_ohm,
        pcode.bypass_mode,
    )
    feasible = (
        (table.vr_voltages_v + np.asarray(vr_offset)[:, None])
        <= table.vmax_v + 1e-9
    ) & table.iccmax_ok
    bins = feasible.shape[1]
    top = bins - 1 - np.argmax(feasible[:, ::-1], axis=1)
    fmax = np.where(feasible.any(axis=1), table.frequencies_hz[top], 0.0)
    reference_leakage = sum(
        core.leakage.base_power_w(core.leakage.reference_voltage_v)
        for core in processor.die.cores
    )
    return DieMetrics(
        fmax_hz=fmax,
        leakage_w=reference_leakage * population.leakage_scale,
        vmin_v=processor.die.vmin_v + population.vmin_offset_v,
    )


@dataclass(frozen=True)
class SkuBin(Codec):
    """One binning rule: cutoffs a die must clear to sell as this part.

    Parameters
    ----------
    name:
        Bin label used in reports.
    sku:
        Key into :data:`~repro.soc.skus.SKU_DESCRIPTIONS` naming the part
        this bin ships as (empty string for a part-less bin).
    min_fmax_hz:
        Minimum Vmax-limited single-core Fmax.
    max_leakage_w:
        Maximum reference-point die leakage.
    max_vmin_v:
        Maximum functional Vmin (a die needing more voltage than the
        platform's retention rails provide cannot ship).
    """

    name: str
    sku: str = ""
    min_fmax_hz: float = 0.0
    max_leakage_w: float = float("inf")
    max_vmin_v: float = float("inf")

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("bin name must be a non-empty string")
        if self.name == SCRAP_BIN:
            raise ConfigurationError(
                f"bin name {SCRAP_BIN!r} is reserved for the leftovers"
            )
        if self.sku and self.sku not in SKU_DESCRIPTIONS:
            raise ConfigurationError(
                f"bin {self.name!r} references unknown sku {self.sku!r}; "
                f"known: {sorted(SKU_DESCRIPTIONS)}"
            )

    def passes(self, metrics: DieMetrics) -> np.ndarray:
        """Boolean mask of dice clearing this bin's cutoffs."""
        return (
            (metrics.fmax_hz >= self.min_fmax_hz)
            & (metrics.leakage_w <= self.max_leakage_w)
            & (metrics.vmin_v <= self.max_vmin_v)
        )


@dataclass(frozen=True)
class BinReport(Codec):
    """Yield and per-bin quantile summary of one binned population.

    ``counts`` / ``yield_fractions`` cover every bin plus ``"scrap"``;
    ``metric_quantiles`` maps bin -> metric -> (p5, p50, p95) and omits
    empty bins.
    """

    bin_names: Tuple[str, ...]
    counts: Dict[str, int]
    yield_fractions: Dict[str, float]
    metric_quantiles: Dict[str, Dict[str, Tuple[float, float, float]]]


@dataclass(frozen=True)
class BinningPolicy(Codec):
    """An ordered list of SKU bins; first match wins, leftovers are scrap."""

    bins: Tuple[SkuBin, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bins", tuple(self.bins))
        if not self.bins:
            raise ConfigurationError("a binning policy needs at least one bin")
        names = [sku_bin.name for sku_bin in self.bins]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate bin names in {names}")

    @property
    def bin_names(self) -> Tuple[str, ...]:
        """Bin names in priority order (scrap excluded)."""
        return tuple(sku_bin.name for sku_bin in self.bins)

    def assign(self, metrics: DieMetrics) -> np.ndarray:
        """Bin index per die (-1 == scrap).

        Dice are offered to bins in order; a die joins the first bin whose
        cutoffs it clears.  Every die therefore lands in exactly one bin or
        in scrap — the partition property the yield accounting relies on.
        """
        assignments = np.full(metrics.count, -1, dtype=np.int64)
        for index, sku_bin in enumerate(self.bins):
            unassigned = assignments < 0
            assignments[unassigned & sku_bin.passes(metrics)] = index
        return assignments

    def report(
        self, metrics: DieMetrics, assignments: Optional[np.ndarray] = None
    ) -> BinReport:
        """Yield fractions and per-bin metric quantiles of *metrics*."""
        if assignments is None:
            assignments = self.assign(metrics)
        if len(assignments) != metrics.count:
            raise ConfigurationError("assignments must cover every die")
        counts: Dict[str, int] = {}
        fractions: Dict[str, float] = {}
        quantiles: Dict[str, Dict[str, Tuple[float, float, float]]] = {}
        columns = metrics.as_mapping()
        for index, name in enumerate((*self.bin_names, SCRAP_BIN)):
            selector = -1 if name == SCRAP_BIN else index
            members = assignments == selector
            count = int(members.sum())
            counts[name] = count
            fractions[name] = count / metrics.count
            if count:
                quantiles[name] = {
                    metric: tuple(
                        float(q)
                        for q in np.percentile(column[members], _QUANTILES)
                    )
                    for metric, column in columns.items()
                }
        return BinReport(
            bin_names=self.bin_names,
            counts=counts,
            yield_fractions=fractions,
            metric_quantiles=quantiles,
        )


def skylake_binning_policy(
    premium_fmax_hz: float = 4.4e9,
    mainstream_fmax_hz: float = 4.0e9,
    max_leakage_w: float = 1.05,
    max_vmin_v: float = 0.585,
) -> BinningPolicy:
    """The default two-part Skylake binning ladder.

    Premium dice (Table 2's i7-6700K speed grade, measured on the bypassed
    desktop design) must clear a 4.4 GHz single-core turbo; the mainstream
    bin (shipped as the mobile i7-6920HQ grade, whose lower cTDP points
    hide the lost speed) accepts 4.0 GHz parts with a tighter leakage cap —
    a leaky die is unsellable in a thermally-constrained mobile chassis.
    Everything else is scrap.  With the default
    :func:`~repro.variation.distributions.skylake_process_variation` model
    the split lands near 52 / 43 / 5 percent.
    """
    return BinningPolicy(
        bins=(
            SkuBin(
                name="premium-desktop",
                sku="skylake-s",
                min_fmax_hz=premium_fmax_hz,
                max_leakage_w=max_leakage_w * 1.25,
                max_vmin_v=max_vmin_v + 0.03,
            ),
            SkuBin(
                name="mainstream-mobile",
                sku="skylake-h",
                min_fmax_hz=mainstream_fmax_hz,
                max_leakage_w=max_leakage_w,
                max_vmin_v=max_vmin_v,
            ),
        )
    )
