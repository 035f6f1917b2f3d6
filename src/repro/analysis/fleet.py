"""Fleet QoS studies: seeded scenario ensembles swept per spec and TDP.

:class:`FleetStudy` crosses system specs (x TDP levels) with named fleet
profiles, compiles each profile into a seeded scenario **ensemble** through
:class:`~repro.fleet.profiles.ScenarioGenerator` (bit-identical per seed),
and steps every (spec variant, ensemble member) cell through the study
machinery — the study executor locksteps a whole ensemble as numpy
arrays (one batch per worker), and any :class:`~repro.store.cache.StoreCache`
passed as ``cache=`` lands every member run in the persistent run store
(warm re-runs execute **zero** simulator tasks).

Member runs condense into per-cell :class:`~repro.fleet.qos.EnsembleQos`
verdicts — SLO-violation rate, throttle residency by limiting factor, the
worst-member p99 latency proxy — so the paper's gated-vs-bypass comparison
reads as "which design violates the fleet SLO less", per workload mix.

The usual entry point is :meth:`Study.over_fleet
<repro.analysis.study.Study.over_fleet>`; this module holds the study and
result types it returns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.reporting import format_table
from repro.analysis.study import Executor, Study, StudyTask, SweepRequest
from repro.common.codec import Codec
from repro.common.errors import ConfigurationError
from repro.core.spec import SystemSpec, resolve_spec
from repro.fleet.profiles import FleetProfile, ScenarioGenerator, fleet_profile
from repro.fleet.qos import (
    DEFAULT_SLO_FREQUENCY_HZ,
    EnsembleQos,
    QosReport,
    aggregate_reports,
)
from repro.workloads.dynamics import DynamicScenario


@dataclass(frozen=True)
class FleetCell(Codec):
    """The pooled QoS of one (spec variant, fleet profile) grid cell."""

    spec: SystemSpec
    profile_name: str
    qos: EnsembleQos


@dataclass(frozen=True)
class FleetStudyResult(Codec):
    """The completed grid of a fleet study, addressable by (spec, profile)."""

    name: str
    seed: int
    ensemble: int
    slo_frequency_hz: float
    cells: Tuple[FleetCell, ...]

    # -- lookup ------------------------------------------------------------------------

    def qos(
        self,
        spec: Union[SystemSpec, str],
        profile: Union[FleetProfile, str],
    ) -> EnsembleQos:
        """The pooled QoS of one (spec variant, profile) cell.

        *spec* may be the expanded variant, its label (``"name@45W"``) or a
        plain spec name when only one TDP level was swept; *profile* may be
        a :class:`~repro.fleet.profiles.FleetProfile` or its (bare or
        ``fleet-``-prefixed) name.
        """
        profile_name = (
            profile.name if isinstance(profile, FleetProfile) else profile
        )
        if profile_name.startswith("fleet-"):
            profile_name = profile_name[len("fleet-"):]
        for cell in self.cells:
            if cell.profile_name != profile_name:
                continue
            if isinstance(spec, SystemSpec):
                if cell.spec == spec:
                    return cell.qos
            elif spec in (cell.spec.label, cell.spec.name):
                return cell.qos
        raise ConfigurationError(
            f"fleet study {self.name!r} has no cell ({spec!r}, {profile_name!r})"
        )

    def profiles(self) -> Tuple[str, ...]:
        """Distinct profile names in grid order."""
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.profile_name)
        return tuple(seen)

    # -- reporting ---------------------------------------------------------------------

    def as_table(self, title: Optional[str] = None) -> str:
        """Render every cell's QoS headlines as a text table."""
        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.spec.label,
                    cell.profile_name,
                    f"{cell.qos.violation_rate:.4f}",
                    f"{cell.qos.throttled_fraction:.4f}",
                    f"{cell.qos.p99_latency_proxy:.4f}",
                ]
            )
        return format_table(
            ["system", "profile", "slo_violation", "throttled", "p99_proxy"],
            rows,
            title=self.name if title is None else title,
        )


class FleetStudy:
    """A fleet QoS sweep: specs x TDP levels x profiles x ensemble members.

    Parameters
    ----------
    specs:
        System specs (or registered names) forming one grid axis.
    profiles:
        Fleet profiles — :class:`~repro.fleet.profiles.FleetProfile`
        objects or registered names (bare or ``fleet-``-prefixed).
    ensemble:
        Ensemble members compiled per profile.  Member *j* of a profile is
        bit-identical for a fixed seed regardless of the ensemble size
        (prefix-stability), so growing the ensemble only *adds* store
        entries — it never invalidates existing ones.
    tdp_levels_w:
        Optional TDP sweep; every spec expands to one variant per level.
    slo_frequency_hz:
        The frequency SLO every member run is judged against.
    request:
        The unified execution descriptor (executor / max_workers / cache /
        seed / name); :meth:`Study.over_fleet
        <repro.analysis.study.Study.over_fleet>` builds one through the
        shared validation helper.  An unseeded request runs with seed 0.
    """

    def __init__(
        self,
        specs: Sequence[Union[SystemSpec, str]],
        profiles: Sequence[Union[FleetProfile, str]],
        *,
        ensemble: int = 8,
        tdp_levels_w: Optional[Sequence[float]] = None,
        slo_frequency_hz: float = DEFAULT_SLO_FREQUENCY_HZ,
        executor: Optional[Executor] = None,
        max_workers: Optional[int] = None,
        cache: Optional[MutableMapping[StudyTask, Any]] = None,
        seed: Optional[int] = 0,
        name: str = "fleet-study",
        request: Optional[SweepRequest] = None,
    ) -> None:
        if request is None:
            request = SweepRequest(
                executor=executor,
                max_workers=max_workers,
                cache=cache,
                seed=seed,
                name=name,
            )
            request.validate("FleetStudy")
        if ensemble < 1:
            raise ConfigurationError("ensemble must be >= 1")
        resolved = tuple(resolve_spec(spec) for spec in specs)
        if not resolved:
            raise ConfigurationError("a fleet study needs at least one spec")
        self._profiles = tuple(
            profile
            if isinstance(profile, FleetProfile)
            else fleet_profile(profile)
            for profile in profiles
        )
        if not self._profiles:
            raise ConfigurationError("a fleet study needs at least one profile")
        names = [profile.name for profile in self._profiles]
        if len(set(names)) != len(names):
            raise ConfigurationError("fleet profiles must have distinct names")
        if tdp_levels_w is not None:
            resolved = tuple(
                spec.variant(tdp_w=tdp)
                for tdp in tdp_levels_w
                for spec in resolved
            )
        self._specs = resolved
        self._ensemble = int(ensemble)
        # Like PopulationStudy, an unseeded fleet study pins seed 0 rather
        # than drawing OS entropy: compiled members must be replayable and
        # keep stable content-addressed run IDs.
        seed = 0 if request.seed is None else int(request.seed)
        self._request = dataclasses.replace(request, seed=seed)
        self._slo_frequency_hz = slo_frequency_hz
        self._tasks_total = 0
        self._tasks_executed = 0

    # -- introspection -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """Study name."""
        return self._request.name

    @property
    def seed(self) -> int:
        """Seed every profile ensemble is compiled from."""
        assert self._request.seed is not None  # pinned in __init__
        return self._request.seed

    @property
    def ensemble(self) -> int:
        """Ensemble members per profile."""
        return self._ensemble

    @property
    def specs(self) -> Tuple[SystemSpec, ...]:
        """The (TDP-expanded) spec axis of the grid."""
        return self._specs

    @property
    def profiles(self) -> Tuple[FleetProfile, ...]:
        """The profile axis of the grid."""
        return self._profiles

    @property
    def tasks_total(self) -> int:
        """Grid tasks of the last :meth:`run` (0 before any run)."""
        return self._tasks_total

    @property
    def tasks_executed(self) -> int:
        """Cache-miss tasks of the last :meth:`run` (0 before any run)."""
        return self._tasks_executed

    def scenarios(self, profile: FleetProfile) -> Tuple[DynamicScenario, ...]:
        """The compiled ensemble of one profile under the study seed."""
        return ScenarioGenerator(profile).ensemble(
            seed=self.seed, count=self._ensemble
        )

    # -- execution ---------------------------------------------------------------------

    def run(self) -> FleetStudyResult:
        """Compile every ensemble, execute the grid, pool the QoS verdicts.

        Every (spec variant, ensemble member) pair is one ordinary dynamic
        engine cell, so the study executor locksteps the grid and a
        ``StoreCache`` persists each member run individually — a warm
        re-run (same specs, profiles, seed, ensemble) executes nothing.
        """
        suites = {
            profile.scenario_name: self.scenarios(profile)
            for profile in self._profiles
        }
        study = Study(
            self._specs, suites, request=self._request.derive(f"{self.name}-grid")
        )
        grid = study.run()
        self._tasks_total = len(study)
        self._tasks_executed = study.tasks_executed
        cells: List[FleetCell] = []
        for spec in self._specs:
            for profile in self._profiles:
                reports = [
                    QosReport.from_result(
                        grid.get(spec, member, suite=profile.scenario_name),
                        self._slo_frequency_hz,
                    )
                    for member in suites[profile.scenario_name]
                ]
                cells.append(
                    FleetCell(
                        spec=spec,
                        profile_name=profile.name,
                        qos=aggregate_reports(
                            reports,
                            name=f"{spec.label}/{profile.scenario_name}",
                        ),
                    )
                )
        return FleetStudyResult(
            name=self.name,
            seed=self.seed,
            ensemble=self._ensemble,
            slo_frequency_hz=self._slo_frequency_hz,
            cells=tuple(cells),
        )
