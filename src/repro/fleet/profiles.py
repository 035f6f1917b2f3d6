"""Named fleet profiles and the arrival-to-scenario compiler.

A :class:`FleetProfile` pairs an :class:`~repro.fleet.arrivals.ArrivalProcess`
with the quantisation rules that turn its sampled per-slot offered load into
a :class:`~repro.workloads.dynamics.DynamicScenario` phase timeline: slot
loads become ``(active_cores, activity)`` pairs on a small quantisation
grid, adjacent identical slots merge into one phase, and near-zero slots
become idle gaps (:data:`~repro.workloads.dynamics.AUTO_CSTATE`).

:class:`ScenarioGenerator` is the seeded compiler.  ``compile(seed=s,
member=j)`` samples the profile's arrival process on tree path ``(j,)`` and
is **bit-identical** for fixed ``(profile, seed, member)`` — across
processes, platforms, and ensemble sizes — because each ensemble member
owns its own spawn-key prefix (the same prefix-stability argument as
``DiePopulationSampler.sample_range``).  ``ensemble(seed, count)`` is
therefore prefix-stable: growing *count* never changes earlier members.

Three fleet profiles ship with the library and are registered in
:data:`~repro.workloads.dynamics.SCENARIO_BUILDERS` under the
``fleet-`` prefix at import time:

``datacenter``
    Diurnally-modulated request serving overlaid with a periodic batch
    (cron-like) duty cycle — the classic datacenter day/night utilisation
    curve with background batch load.
``consumer``
    Self-similar ON/OFF interactive bursts over a thin background stream —
    the bursty foreground/idle-gap pattern of consumer devices.
``graphics``
    A frame-rate-locked graphics duty cycle co-scheduled with a Poisson IA
    (CPU) request stream — sustained co-scheduling pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_in_range, ensure_positive, ensure_seed
from repro.fleet.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    DutyCycleArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.workloads.dynamics import (
    AUTO_CSTATE,
    SCENARIO_BUILDERS,
    DynamicPhase,
    DynamicScenario,
)

#: Registry prefix of fleet-generated scenarios in ``SCENARIO_BUILDERS``.
FLEET_PROFILE_PREFIX = "fleet-"


@dataclass(frozen=True)
class FleetProfile:
    """A named fleet workload: an arrival process plus quantisation rules.

    Parameters
    ----------
    name:
        Profile name (registered as ``fleet-<name>``).
    arrivals:
        The seeded arrival process generating offered load.
    slot_s:
        Compilation slot width; each sampled slot becomes (part of) one
        timeline phase.
    max_cores:
        Core-count ceiling of the compiled phases.
    base_activity:
        Cdyn activity of a fully-loaded core; partial slot utilisation
        scales it down on the quantisation grid.
    memory_intensity:
        Memory-traffic intensity of every active phase.
    idle_threshold:
        Slot loads below this compile to idle gaps.
    activity_levels:
        Size of the per-core utilisation quantisation grid (coarser grids
        merge more aggressively into fewer phases).
    time_step_s:
        Simulation step of the compiled scenarios.
    pl2_ratio:
        Burst power limit of the compiled scenarios (multiple of TDP).
    """

    name: str
    arrivals: ArrivalProcess
    slot_s: float = 5.0
    max_cores: int = 4
    base_activity: float = 0.62
    memory_intensity: float = 0.2
    idle_threshold: float = 0.05
    activity_levels: int = 8
    time_step_s: float = 0.1
    pl2_ratio: float = 1.25

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("profile name must be a non-empty string")
        if not isinstance(self.arrivals, ArrivalProcess):
            raise ConfigurationError(
                "arrivals must be an arrival process, got "
                f"{type(self.arrivals).__name__}"
            )
        ensure_positive(self.slot_s, "slot_s")
        if self.max_cores < 1:
            raise ConfigurationError("max_cores must be >= 1")
        ensure_in_range(self.base_activity, 0.0, 1.0, "base_activity")
        ensure_in_range(self.memory_intensity, 0.0, 1.0, "memory_intensity")
        ensure_in_range(self.idle_threshold, 0.0, 1.0, "idle_threshold")
        if self.activity_levels < 1:
            raise ConfigurationError("activity_levels must be >= 1")
        ensure_positive(self.time_step_s, "time_step_s")
        if self.pl2_ratio < 1.0:
            raise ConfigurationError("pl2_ratio must be >= 1.0")

    @property
    def scenario_name(self) -> str:
        """The registry name of this profile's scenarios."""
        return f"{FLEET_PROFILE_PREFIX}{self.name}"

    def quantize(self, load: float) -> Tuple[int, float]:
        """Map one slot's offered load to ``(active_cores, activity)``.

        Loads below :attr:`idle_threshold` are idle ``(0, 0.0)``.  Otherwise
        the load claims ``ceil(load)`` cores (capped at :attr:`max_cores`)
        and the per-core utilisation is quantised **up** onto the
        ``activity_levels`` grid, scaling :attr:`base_activity`.
        """
        if load < self.idle_threshold:
            return 0, 0.0
        cores = min(self.max_cores, max(1, math.ceil(load - 1e-9)))
        utilisation = min(1.0, load / cores)
        level = math.ceil(utilisation * self.activity_levels - 1e-9)
        activity = self.base_activity * level / self.activity_levels
        return cores, min(1.0, activity)


@dataclass(frozen=True)
class ScenarioGenerator:
    """The seeded fleet-profile compiler.

    For a fixed ``(profile, seed, member)`` triple, :meth:`compile` is
    bit-identical everywhere: the arrival draw happens on the member's own
    spawn-key prefix ``(member,)`` and the quantisation is pure arithmetic.
    """

    profile: FleetProfile

    def __post_init__(self) -> None:
        if not isinstance(self.profile, FleetProfile):
            raise ConfigurationError(
                f"profile must be a FleetProfile, got {type(self.profile).__name__}"
            )

    def compile(self, seed: int = 0, member: int = 0) -> DynamicScenario:
        """Compile ensemble member *member* of the profile under *seed*."""
        seed = ensure_seed(seed)
        if not isinstance(member, int) or isinstance(member, bool) or member < 0:
            raise ConfigurationError(f"member must be an int >= 0, got {member!r}")
        profile = self.profile
        loads = profile.arrivals.sample_load(
            profile.slot_s, seed, key=(member,)
        )
        phases = self._phases(loads)
        return DynamicScenario(
            name=f"{profile.scenario_name}#s{seed}m{member}",
            phases=phases,
            time_step_s=profile.time_step_s,
            pl2_ratio=profile.pl2_ratio,
        )

    def ensemble(self, seed: int = 0, count: int = 1) -> Tuple[DynamicScenario, ...]:
        """Compile ensemble members ``0..count-1`` under *seed*.

        Prefix-stable: ``ensemble(seed, n)[:k] == ensemble(seed, k)`` for
        any ``k <= n`` — member *j* depends only on ``(profile, seed, j)``.
        """
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        return tuple(self.compile(seed=seed, member=j) for j in range(count))

    def _phases(self, loads) -> Tuple[DynamicPhase, ...]:
        profile = self.profile
        # Merge runs of slots that quantise identically into single phases.
        runs: List[Tuple[int, float, int]] = []
        for load in loads:
            cores, activity = profile.quantize(float(load))
            if runs and runs[-1][0] == cores and runs[-1][1] == activity:
                cores_, activity_, count = runs[-1]
                runs[-1] = (cores_, activity_, count + 1)
            else:
                runs.append((cores, activity, 1))
        phases: List[DynamicPhase] = []
        for index, (cores, activity, count) in enumerate(runs):
            duration_s = count * profile.slot_s
            if cores == 0:
                phases.append(
                    DynamicPhase(
                        name=f"idle{index}",
                        duration_s=duration_s,
                        package_cstate=AUTO_CSTATE,
                    )
                )
            else:
                phases.append(
                    DynamicPhase(
                        name=f"load{index}",
                        duration_s=duration_s,
                        active_cores=cores,
                        activity=activity,
                        memory_intensity=profile.memory_intensity,
                    )
                )
        return tuple(phases)


# -- named profiles ---------------------------------------------------------------------


def datacenter_profile(**overrides) -> FleetProfile:
    """Datacenter serving: diurnal request curve plus periodic batch load.

    One compressed "day" (240 s) of diurnally-modulated Poisson request
    serving, overlaid with a cron-like batch duty cycle that claims a full
    core 30% of every minute.
    """
    serving = DiurnalArrivals(
        duration_s=240.0,
        rate_hz=6.0,
        amplitude=0.7,
        period_s=240.0,
        phase=0.75,
        request_load=0.3,
    )
    batch = DutyCycleArrivals(
        duration_s=240.0, period_s=60.0, on_fraction=0.3, load=1.0
    )
    arrivals = serving.overlay(batch)
    return FleetProfile(name="datacenter", arrivals=arrivals, **overrides)


def consumer_interactive_profile(**overrides) -> FleetProfile:
    """Consumer interactive: heavy-tailed ON/OFF bursts over a thin stream.

    Self-similar foreground bursts (taps, scrolls, app launches) riding a
    low-rate background service stream; long OFF sojourns open idle gaps
    that exercise package C-state entry and turbo re-banking.
    """
    foreground = OnOffArrivals(
        duration_s=180.0,
        mean_on_s=4.0,
        mean_off_s=12.0,
        alpha=1.5,
        on_load=3.0,
    )
    background = PoissonArrivals(
        duration_s=180.0, rate_hz=0.6, request_load=0.2
    )
    arrivals = foreground.overlay(background)
    overrides.setdefault("slot_s", 2.0)
    return FleetProfile(name="consumer", arrivals=arrivals, **overrides)


def graphics_coschedule_profile(**overrides) -> FleetProfile:
    """Graphics + IA co-scheduling: frame duty cycle plus request serving.

    A frame-rate-locked rendering duty cycle (two cores, 60% duty) runs
    co-scheduled with a Poisson IA request stream — sustained multi-core
    pressure with periodic relief, the co-scheduling mix whose throttling
    the paper's gated design must not worsen.
    """
    frames = DutyCycleArrivals(
        duration_s=200.0, period_s=20.0, on_fraction=0.6, load=2.0
    )
    requests = PoissonArrivals(
        duration_s=200.0, rate_hz=3.0, request_load=0.35
    )
    arrivals = frames.overlay(requests)
    overrides.setdefault("slot_s", 4.0)
    return FleetProfile(name="graphics", arrivals=arrivals, **overrides)


#: Name -> profile factory for every canonical fleet profile.
_PROFILE_FACTORIES: Dict[str, Callable[..., FleetProfile]] = {
    "datacenter": datacenter_profile,
    "consumer": consumer_interactive_profile,
    "graphics": graphics_coschedule_profile,
}


def fleet_profile_names() -> List[str]:
    """The names :func:`fleet_profile` accepts, sorted."""
    return sorted(_PROFILE_FACTORIES)


def fleet_profile(name: str, **overrides) -> FleetProfile:
    """Build a canonical fleet profile by name.

    Accepts the bare profile name (``"datacenter"``) or the registry form
    (``"fleet-datacenter"``); *overrides* replace :class:`FleetProfile`
    fields (``slot_s=2.0``, ``max_cores=8``, ...).
    """
    if name.startswith(FLEET_PROFILE_PREFIX):
        name = name[len(FLEET_PROFILE_PREFIX):]
    factory = _PROFILE_FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown fleet profile {name!r}; known profiles: "
            f"{', '.join(fleet_profile_names())}"
        )
    return factory(**overrides)


def _make_builder(profile_name: str) -> Callable[..., DynamicScenario]:
    def builder(
        seed: int = 0, member: int = 0, **overrides
    ) -> DynamicScenario:
        profile = fleet_profile(profile_name, **overrides)
        return ScenarioGenerator(profile).compile(seed=seed, member=member)

    builder.__name__ = f"fleet_{profile_name}_scenario"
    builder.__doc__ = (
        f"Ensemble member *member* of the {profile_name!r} fleet profile "
        "under *seed*."
    )
    return builder


def register_fleet_profiles() -> None:
    """Register every canonical fleet profile in ``SCENARIO_BUILDERS``.

    Runs at :mod:`repro.fleet` import time and is idempotent; afterwards
    ``build_scenario("fleet-datacenter", seed=7, member=2)`` compiles the
    same scenario as the library API.
    """
    for profile_name in _PROFILE_FACTORIES:
        SCENARIO_BUILDERS.setdefault(
            f"{FLEET_PROFILE_PREFIX}{profile_name}", _make_builder(profile_name)
        )


register_fleet_profiles()
