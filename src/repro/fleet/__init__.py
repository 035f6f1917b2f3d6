"""Seeded stochastic fleet-workload generation.

The dynamic scenarios of :mod:`repro.workloads.dynamics` are hand-built
timelines; this package generates them *stochastically* from declarative
request-arrival processes, so the paper's gated-vs-bypass verdict can be
quantified per fleet workload **mix** instead of per synthetic burst:

* :mod:`repro.fleet.arrivals` — frozen, seeded arrival-process specs
  (Poisson, diurnal-modulated, self-similar ON/OFF, deterministic duty
  cycle) that sum with ``overlay``;
* :mod:`repro.fleet.profiles` — named fleet profiles (datacenter duty
  cycle, consumer interactive, graphics+IA co-scheduling) compiled into
  :class:`~repro.workloads.dynamics.DynamicScenario` timelines through the
  bit-deterministic :class:`~repro.fleet.profiles.ScenarioGenerator`;
* :mod:`repro.fleet.qos` — per-scenario QoS metrics (frequency-SLO
  violation rate, throttle residency by limiting factor, a p99 latency
  proxy) computed from :class:`~repro.sim.metrics.DynamicRunResult`
  traces, plus the seeded-ensemble aggregation behind
  ``Study.over_fleet``.

Importing the package registers the named profiles in
:data:`~repro.workloads.dynamics.SCENARIO_BUILDERS`, so
``python -m repro run --scenario fleet-datacenter`` (or ``--profile``)
builds exactly the scenarios the library compiles.
"""

from repro.fleet.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    DutyCycleArrivals,
    OnOffArrivals,
    OverlayArrivals,
    PoissonArrivals,
)
from repro.fleet.profiles import (
    FleetProfile,
    ScenarioGenerator,
    consumer_interactive_profile,
    datacenter_profile,
    fleet_profile,
    fleet_profile_names,
    graphics_coschedule_profile,
)
from repro.fleet.qos import (
    EnsembleQos,
    QosReport,
    aggregate_reports,
)

__all__ = [
    "ArrivalProcess",
    "DiurnalArrivals",
    "DutyCycleArrivals",
    "OnOffArrivals",
    "OverlayArrivals",
    "PoissonArrivals",
    "FleetProfile",
    "ScenarioGenerator",
    "consumer_interactive_profile",
    "datacenter_profile",
    "fleet_profile",
    "fleet_profile_names",
    "graphics_coschedule_profile",
    "EnsembleQos",
    "QosReport",
    "aggregate_reports",
]
