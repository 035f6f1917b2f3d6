"""Declarative system specifications.

A :class:`SystemSpec` is a frozen, hashable, JSON-serialisable description
of one evaluated system: which SKU it is, its market segment, TDP
configuration, power-delivery mode, deepest package C-state, and guardband
options.  ``spec.build()`` assembles the corresponding firmware-configured
system (:class:`~repro.pmu.pcode.Pcode`); ``spec.variant(...)`` derives new
configurations; and a small registry names the configurations the paper
evaluates so that experiments can say ``get_spec("darkgates")`` instead of
calling hardcoded factory functions.

Registered names:

* ``"darkgates"`` — Skylake-S, power-gates bypassed, package C8, Section 4.2
  reliability guardband.
* ``"baseline"`` — Skylake-H, power-gates enabled, package C7.
* ``"darkgates+c7"`` — the Fig. 10 ablation: bypassed but limited to C7.
* ``"broadwell-baseline"`` — the gated Broadwell part of the Fig. 3
  motivation experiment.
* ``"broadwell-100mv"`` — the same part with a flat -100 mV guardband
  reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive
from repro.pdn.guardband import GuardbandModel, OffsetGuardbandModel
from repro.pmu.fuses import FuseSet, PowerDeliveryMode
from repro.pmu.pcode import Pcode
from repro.reliability.guardband import ReliabilityGuardbandModel
from repro.sim.engine import SimulationEngine
from repro.soc.processor import Processor
from repro.soc.skus import broadwell_desktop, skylake_h_mobile, skylake_s_desktop
from repro.variation.sampler import DieVariation

#: SKU name -> builder of the corresponding processor at a TDP level.
SKU_BUILDERS: Dict[str, Callable[[float], Processor]] = {
    "skylake-s": skylake_s_desktop,
    "skylake-h": skylake_h_mobile,
    "broadwell": broadwell_desktop,
}


@dataclass(frozen=True)
class SystemSpec(Codec):
    """Declarative description of one evaluated system configuration.

    Parameters
    ----------
    name:
        Human-readable configuration name (registry key for named specs).
    sku:
        Hardware SKU: one of :data:`SKU_BUILDERS` (``"skylake-s"``,
        ``"skylake-h"``, ``"broadwell"``).
    segment:
        Market segment recorded in the fuse set (informational).
    tdp_w:
        TDP configuration (the evaluation sweeps 35 - 91 W).
    power_delivery:
        ``PowerDeliveryMode.BYPASS`` (DarkGates) or ``NORMAL`` (gated);
        a plain ``"bypass"`` / ``"normal"`` string is accepted and coerced.
    deepest_package_cstate:
        Deepest package C-state the platform is validated for.
    apply_reliability_guardband:
        Apply the Section 4.2 reliability margin in bypass mode.
    guardband_offset_v:
        Flat offset added to the PDN guardband (the Fig. 3 motivation
        experiment uses -0.100 V); 0 leaves the guardband untouched.
    die_variation:
        Optional :class:`~repro.variation.sampler.DieVariation` describing
        a specific (non-nominal) die of this SKU; ``None`` builds the
        nominal part.  Population samplers materialise their reference
        path as one variant per sampled die through this field.
    """

    name: str
    sku: str = "skylake-s"
    segment: str = "desktop"
    tdp_w: float = 91.0
    power_delivery: PowerDeliveryMode = PowerDeliveryMode.BYPASS
    deepest_package_cstate: str = "C8"
    apply_reliability_guardband: bool = True
    guardband_offset_v: float = 0.0
    die_variation: Optional[DieVariation] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("spec name must be a non-empty string")
        if self.sku not in SKU_BUILDERS:
            raise ConfigurationError(
                f"unknown sku {self.sku!r}; known: {sorted(SKU_BUILDERS)}"
            )
        ensure_positive(self.tdp_w, "tdp_w")
        if isinstance(self.power_delivery, str):
            try:
                mode = PowerDeliveryMode(self.power_delivery)
            except ValueError:
                raise ConfigurationError(
                    f"unknown power-delivery mode {self.power_delivery!r}"
                ) from None
            object.__setattr__(self, "power_delivery", mode)
        # Validates the C-state name eagerly (FuseSet raises on bad names).
        self.fuses()

    # -- derived views -----------------------------------------------------------------

    @property
    def bypass_enabled(self) -> bool:
        """True when this spec describes a DarkGates bypass-mode system."""
        return self.power_delivery is PowerDeliveryMode.BYPASS

    @property
    def label(self) -> str:
        """Short display label, e.g. ``"darkgates@91W"``."""
        return f"{self.name}@{self.tdp_w:g}W"

    def fuses(self) -> FuseSet:
        """The fuse set this spec programs."""
        return FuseSet(
            power_delivery_mode=self.power_delivery,
            deepest_package_cstate=self.deepest_package_cstate,
            segment=self.segment,
        )

    # -- derivation --------------------------------------------------------------------

    def variant(self, **overrides: Any) -> "SystemSpec":
        """A copy of this spec with some fields overridden."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SystemSpec field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return replace(self, **overrides)

    # -- construction ------------------------------------------------------------------

    def reliability_margin_v(self) -> float:
        """The Section 4.2 reliability margin this spec applies."""
        if not (self.bypass_enabled and self.apply_reliability_guardband):
            return 0.0
        return ReliabilityGuardbandModel().margin_for_tdp(self.tdp_w)

    def build(self) -> Pcode:
        """Assemble the firmware-configured system this spec describes."""
        processor = SKU_BUILDERS[self.sku](self.tdp_w)
        if self.die_variation is not None:
            processor = replace(
                processor,
                thermal_resistance_scale=self.die_variation.thermal_resistance_scale,
            )
        margin = self.reliability_margin_v()
        guardband_model = None
        if self.guardband_offset_v != 0.0:
            guardband_model = OffsetGuardbandModel(
                GuardbandModel(
                    configuration=processor.package.pdn,
                    reliability_margin_v=margin,
                ),
                offset_v=self.guardband_offset_v,
            )
        return Pcode(
            processor=processor,
            fuses=self.fuses(),
            reliability_margin_v=margin,
            guardband_model=guardband_model,
            die_variation=self.die_variation,
        )


@lru_cache(maxsize=None)
def build_engine(spec: SystemSpec) -> SimulationEngine:
    """A simulation engine for *spec*, cached per unique spec.

    Building a system runs an AC sweep of its PDN to derive guardbands, so
    sweep runners share engines between identical specs.  Specs are frozen
    and hashable, which makes them natural cache keys.
    """
    return SimulationEngine(spec.build())


# -- named-spec registry ---------------------------------------------------------------

_REGISTRY: Dict[str, SystemSpec] = {}


def register_spec(spec: SystemSpec, replace_existing: bool = False) -> SystemSpec:
    """Register *spec* under ``spec.name`` and return it."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ConfigurationError(
            f"spec {spec.name!r} is already registered; "
            "pass replace_existing=True to overwrite"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str, **overrides: Any) -> SystemSpec:
    """Look up a registered spec, optionally deriving a variant of it."""
    try:
        spec = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown system spec {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return spec.variant(**overrides) if overrides else spec


def spec_names() -> Tuple[str, ...]:
    """Names of every registered spec, in registration order."""
    return tuple(_REGISTRY)


def resolve_spec(spec: Union[SystemSpec, str]) -> SystemSpec:
    """Pass through a spec, or look a name up in the registry."""
    if isinstance(spec, SystemSpec):
        return spec
    if isinstance(spec, str):
        return get_spec(spec)
    raise ConfigurationError(
        f"expected a SystemSpec or a registered name, got {type(spec).__name__}"
    )


register_spec(
    SystemSpec(
        name="darkgates",
        sku="skylake-s",
        segment="desktop",
        power_delivery=PowerDeliveryMode.BYPASS,
        deepest_package_cstate="C8",
    )
)
register_spec(
    SystemSpec(
        name="baseline",
        sku="skylake-h",
        segment="desktop",
        power_delivery=PowerDeliveryMode.NORMAL,
        deepest_package_cstate="C7",
    )
)
register_spec(
    SystemSpec(
        name="darkgates+c7",
        sku="skylake-s",
        segment="desktop",
        power_delivery=PowerDeliveryMode.BYPASS,
        deepest_package_cstate="C7",
    )
)
register_spec(
    SystemSpec(
        name="broadwell-baseline",
        sku="broadwell",
        segment="desktop",
        tdp_w=65.0,
        power_delivery=PowerDeliveryMode.NORMAL,
        deepest_package_cstate="C7",
    )
)
register_spec(
    SystemSpec(
        name="broadwell-100mv",
        sku="broadwell",
        segment="desktop",
        tdp_w=65.0,
        power_delivery=PowerDeliveryMode.NORMAL,
        deepest_package_cstate="C7",
        guardband_offset_v=-0.100,
    )
)
