"""The closed-loop Pcode dynamics engine.

The steady-state models resolve *operating points*; this module resolves
*trajectories*.  :class:`DynamicsSimulator` steps a
:class:`~repro.workloads.dynamics.DynamicScenario` through time, closing the
loop between four firmware/physics subsystems every step:

1. **Turbo power budget** — a PL1/PL2 pair with EWMA accounting
   (:class:`~repro.pmu.turbo.TurboBudgetManager`): the package may burst to
   PL2 while the moving average of power has headroom below PL1 (the TDP),
   then the budget squeezes back to the sustained level.
2. **Thermal RC model** — the junction temperature follows the exponential
   step response of :class:`~repro.power.thermal.TransientThermalModel`, and
   a thermal throttle caps the next step's power so Tjmax is never crossed.
3. **DVFS re-resolution** — every step picks the highest 100 MHz bin that
   satisfies Vmax, Iccmax and the *instantaneous* power limit at the
   *current* junction temperature, via the vectorized
   :class:`~repro.pmu.dvfs.CandidateTable`.
4. **Package C-states** — idle gaps enter the state the break-even ladder
   allows for their duration (clamped at the fused deepest state), and the
   idle power both cools the die and re-banks the turbo budget.

Once a sustained stretch exhausts the turbo budget (the EWMA reaches PL1),
the firmware latches the *sustained* operating point — the one the static
:meth:`~repro.pmu.dvfs.DvfsPolicy.resolve` computes from the TDP tables —
until an idle gap re-banks enough budget.  This reproduces the paper's
TDP-limited behaviour exactly: a long constant-demand scenario converges to
the same 100 MHz bin (and thermal fixed point) the steady-state resolver
reports, while low-TDP configurations show the PL2-burst-then-throttle
transient on the way there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.pmu.cstates import PackageCState, cstate_for_idle_duration
from repro.pmu.dvfs import (
    LIMITING_FACTOR_CODES,
    LIMITING_FACTOR_ORDER,
    CandidateTable,
    CpuDemand,
    LimitingFactor,
    OperatingPoint,
    StackedCandidateTables,
    die_voltage_offsets,
)
from repro.pmu.pcode import Pcode
from repro.pmu.turbo import BatchedTurboBudgetManager, TurboBudgetManager
from repro.power.budget import TurboLimits
from repro.power.thermal import BatchedThermalModel, TransientThermalModel
from repro.sim.metrics import DynamicRunResult, encode_cstates
from repro.sim.operating_point import (
    SustainedPoint,
    resolve_sustained_bins,
    sustained_table_point,
)
from repro.workloads.dynamics import AUTO_CSTATE, DynamicPhase, DynamicScenario

if TYPE_CHECKING:
    from repro.variation.sampler import DiePopulation
    from repro.variation.streaming import StreamingCellShard


def phase_step_counts(scenario: DynamicScenario) -> List[int]:
    """Steps per phase on the scenario's global time grid.

    Phase boundaries are quantised from the *cumulative* timeline (each
    phase keeps at least one step), so rounding never accumulates across a
    multi-phase scenario: the run always ends within half a step of
    ``scenario.duration_s``.  Shared by the per-run and batched steppers so
    both walk exactly the same grid.
    """
    dt = scenario.time_step_s
    counts: List[int] = []
    elapsed_steps = 0
    scheduled_end_s = 0.0
    for phase in scenario.phases:
        scheduled_end_s += phase.duration_s
        steps = max(1, round(scheduled_end_s / dt) - elapsed_steps)
        elapsed_steps += steps
        counts.append(steps)
    return counts


def _loop_start(
    pcode: Pcode, scenario: DynamicScenario
) -> Tuple[TurboLimits, TransientThermalModel, float, bool]:
    """Where *scenario*'s closed loop starts on *pcode*, for every stepper.

    Returns the turbo limits, the thermal RC model, the initial junction
    temperature and whether the burst budget starts armed.
    """
    processor = pcode.processor
    thermal = TransientThermalModel(
        steady_state=processor.thermal_model(),
        capacitance_j_per_c=scenario.thermal_capacitance_j_per_c,
    )
    limits = TurboLimits.from_tdp(
        processor.tdp_w, pl2_ratio=scenario.pl2_ratio, tau_s=scenario.turbo_tau_s
    )
    temperature_c = scenario.initial_temperature_c
    if temperature_c is None:
        temperature_c = thermal.limits.ambient_c
    armed = scenario.initial_average_power_w < limits.pl1_w
    return limits, thermal, temperature_c, armed


class _TraceRecorder:
    """Accumulates the per-step traces of one run."""

    def __init__(self) -> None:
        self.frequencies_hz: List[float] = []
        self.package_powers_w: List[float] = []
        self.temperatures_c: List[float] = []
        self.average_powers_w: List[float] = []
        self.limiting_codes: List[int] = []
        self.package_cstates: List[str] = []

    def record(
        self,
        frequency_hz: float,
        package_power_w: float,
        temperature_c: float,
        average_power_w: float,
        limiting: LimitingFactor,
        cstate: str,
    ) -> None:
        self.frequencies_hz.append(frequency_hz)
        self.package_powers_w.append(package_power_w)
        self.temperatures_c.append(temperature_c)
        self.average_powers_w.append(average_power_w)
        self.limiting_codes.append(LIMITING_FACTOR_CODES[limiting])
        self.package_cstates.append(cstate)


class DynamicsSimulator:
    """Steps dynamic scenarios through the closed firmware loop.

    Parameters
    ----------
    pcode:
        The firmware-configured system (provides the DVFS policy, the
        C-state power model, the TDP, and the thermal design limits).
    """

    def __init__(self, pcode: Pcode) -> None:
        self._pcode = pcode
        self._sustained_cache: Dict[CpuDemand, SustainedPoint] = {}

    @property
    def pcode(self) -> Pcode:
        """The firmware configuration this simulator drives."""
        return self._pcode

    # -- public API --------------------------------------------------------------------

    def run(self, scenario: DynamicScenario) -> DynamicRunResult:
        """Simulate *scenario* and return the full trajectory."""
        limits, thermal, temperature, burst_armed = _loop_start(self._pcode, scenario)
        turbo = TurboBudgetManager(
            limits, initial_average_w=scenario.initial_average_power_w
        )
        recorder = _TraceRecorder()
        dt = scenario.time_step_s
        for phase, steps in zip(scenario.phases, phase_step_counts(scenario)):
            if phase.is_idle:
                stepper = self._idle_stepper(phase)
            else:
                stepper = self._active_stepper(phase, limits, thermal, turbo)
            for _ in range(steps):
                frequency, power, limiting, cstate, exhausted = stepper(
                    temperature, burst_armed, dt
                )
                average = turbo.account(power, dt)
                temperature = thermal.step(temperature, power, dt)
                if exhausted:
                    burst_armed = False
                elif average <= limits.pl1_w * scenario.rebank_fraction:
                    burst_armed = True
                recorder.record(
                    frequency, power, temperature, average, limiting, cstate
                )
        cstate_codes, cstate_names = encode_cstates(recorder.package_cstates)
        return DynamicRunResult(
            scenario_name=scenario.name,
            time_step_s=dt,
            pl1_w=limits.pl1_w,
            pl2_w=limits.pl2_w,
            frequencies_hz=recorder.frequencies_hz,
            package_powers_w=recorder.package_powers_w,
            temperatures_c=recorder.temperatures_c,
            average_powers_w=recorder.average_powers_w,
            limiting_codes=recorder.limiting_codes,
            cstate_codes=cstate_codes,
            cstate_names=cstate_names,
        )

    # -- per-phase steppers ------------------------------------------------------------

    def _idle_stepper(self, phase: DynamicPhase):
        state = self._resolve_idle_state(phase)
        power = self._pcode.cstate_model.power_w(state)

        def step(
            temperature: float, burst_armed: bool, dt: float
        ) -> Tuple[float, float, LimitingFactor, str, bool]:
            return 0.0, power, LimitingFactor.NONE, state.value, False

        return step

    def _active_stepper(
        self,
        phase: DynamicPhase,
        limits: TurboLimits,
        thermal: TransientThermalModel,
        turbo: TurboBudgetManager,
    ):
        demand = phase.demand()
        table = self._pcode.dvfs_policy.candidate_table(demand)
        sustained = self._sustained_point(demand, table)

        def step(
            temperature: float, burst_armed: bool, dt: float
        ) -> Tuple[float, float, LimitingFactor, str, bool]:
            thermal_cap = thermal.max_power_keeping_tjmax_w(temperature, dt)
            powers = table.package_power_w(temperature)
            exhausted = False
            if burst_armed:
                budget = turbo.power_budget_w(dt)  # already PL2-clamped
                index, limiting = table.select(
                    min(budget, thermal_cap), temperature, package_power_w=powers
                )
                if limiting is LimitingFactor.TDP and thermal_cap < budget:
                    limiting = LimitingFactor.THERMAL
                # The power-limited search (EWMA budget or thermal throttle)
                # decaying onto or below the sustained bin means the turbo
                # bank is spent: latch the sustained (TDP-table) point until
                # an idle gap re-banks budget.
                if (
                    limiting in (LimitingFactor.TDP, LimitingFactor.THERMAL)
                    and index <= sustained.bin_index
                ):
                    exhausted = True
            else:
                # Bank exhausted: burst bins are off the table; the ceiling
                # is the sustained (TDP-table) bin, still subject to the
                # instantaneous PL2/thermal envelope.
                index, limiting = table.select(
                    min(limits.pl2_w, thermal_cap), temperature, package_power_w=powers
                )
                if limiting is LimitingFactor.TDP and thermal_cap < limits.pl2_w:
                    limiting = LimitingFactor.THERMAL
                if index >= sustained.bin_index:
                    index, limiting = sustained.bin_index, sustained.limiting
            power = float(powers[index])
            return float(table.frequencies_hz[index]), power, limiting, "C0", exhausted

        return step

    # -- helpers -----------------------------------------------------------------------

    def _resolve_idle_state(self, phase: DynamicPhase) -> PackageCState:
        deepest = self._pcode.deepest_package_cstate()
        name = phase.package_cstate.strip()
        if name.lower() == AUTO_CSTATE:
            return cstate_for_idle_duration(phase.duration_s, deepest)
        if name.lower() == "deepest":
            return deepest
        state = PackageCState.from_name(name)
        if state is PackageCState.C0:
            raise ConfigurationError(
                f"idle phase {phase.name!r} cannot pin package C0"
            )
        return state if state.depth <= deepest.depth else deepest

    def _sustained_point(
        self, demand: CpuDemand, table: CandidateTable
    ) -> SustainedPoint:
        cached = self._sustained_cache.get(demand)
        if cached is None:
            cached = sustained_table_point(self._pcode, demand, table)
            self._sustained_cache[demand] = cached
        return cached


# -- the batched (lockstep) fast path --------------------------------------------------


#: Trace code of the active package state.
_C0_NAME = PackageCState.C0.value

_CODE_VMAX = LIMITING_FACTOR_CODES[LimitingFactor.VMAX]
_CODE_TDP = LIMITING_FACTOR_CODES[LimitingFactor.TDP]
_CODE_ICCMAX = LIMITING_FACTOR_CODES[LimitingFactor.ICCMAX]
_CODE_THERMAL = LIMITING_FACTOR_CODES[LimitingFactor.THERMAL]
_CODE_FREQUENCY_GRID = LIMITING_FACTOR_CODES[LimitingFactor.FREQUENCY_GRID]
_CODE_NONE = LIMITING_FACTOR_CODES[LimitingFactor.NONE]

#: Window margins of :meth:`_ActiveSegment.resolve`: bins evaluated below
#: the lower of the previous step's lowest top bin and the lowest sustained
#: bin, and above the previous step's highest top bin.
_WINDOW_BELOW = 1
_WINDOW_ABOVE = 2


class _ActiveSegment:
    """Row-dependent gathers of one lockstep segment, hoisted out of the loop.

    Between two phase boundaries every run's candidate table, sustained
    point and activity are fixed, so the per-step work reduces to the
    temperature/budget-dependent arithmetic in :meth:`resolve` — a flat
    sequence of vectorized operations replicating the per-run stepper
    expression for expression.

    The constructor prepares a windowed bin search:

    * **Trim.**  No selection lands above the highest statically (Vmax and
      Iccmax) feasible bin of any run, and the limit report probes at most
      one bin above the selection, so only bins ``0 .. top feasible + 1``
      are kept (``edge`` is the trimmed bin count).
    * **Bins-major layout.**  Every per-bin matrix is stored ``(bins,
      runs)``, so a window of bins is a contiguous row slice.
    * **Padding groups dropped.**  An all-zero leakage group with ``kt ==
      0`` (stacking padding) has a scale of exactly 1 and adds exactly
      ``+0.0``, so leaving it out changes no bit.
    * **The check** (``windowed``).  For every run, static feasibility must
      be a prefix of the bins, and the dynamic and every leakage reference
      power must never decrease over that prefix (padded bins lie beyond
      it and are not looked at).  Package power is then non-decreasing over
      the prefix at any temperature: it is built term by term from those
      references, and IEEE-754 round-to-nearest addition and multiplication
      by a non-negative scale are monotone.  So each run's allowed bins
      (feasible and under its power limit) form a prefix.

    :meth:`resolve` then evaluates only bins ``[lo, hi)``: from one below
    the lower of the previous step's lowest top bin and the lowest
    sustained bin, to two above the previous step's highest top bin.  The
    window is accepted when both ends show that every answer lies inside:
    ``lo == 0`` or every run allows bin ``lo``, and ``hi == edge`` or no run
    allows bin ``hi - 1``.  Otherwise — and on every step of a segment that
    fails the check — the same code evaluates the whole trimmed range.
    Either way the results are bit-identical to evaluating every bin.
    """

    def __init__(
        self,
        stacked: StackedCandidateTables,
        rows: np.ndarray,
        run_axis: np.ndarray,
        active: np.ndarray,
        sustained_bin: np.ndarray,
        sustained_code: np.ndarray,
    ) -> None:
        self._run_axis = run_axis
        self._active = active
        self._all_active = bool(active.all())
        static_ok = stacked.vmax_ok[rows] & stacked.iccmax_ok[rows]
        feasible_bins = np.flatnonzero(static_ok.any(axis=0))
        top_feasible = int(feasible_bins[-1]) if len(feasible_bins) else -1
        self.edge = edge = min(static_ok.shape[1], top_feasible + 2)

        def bins_major(matrix: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(matrix[:, :edge].T)

        vmax_ok = bins_major(stacked.vmax_ok[rows])
        iccmax_ok = bins_major(stacked.iccmax_ok[rows])
        self._static_ok = vmax_ok & iccmax_ok
        self._frequencies_hz = bins_major(stacked.frequencies_hz[rows])
        self._dynamic_w = bins_major(stacked.active_dynamic_w[rows])
        self._bin_range = np.arange(edge)[:, None]
        # Blocking-limit code of each bin, indexed by the (per-step) power
        # verdict at that bin; mirrors CandidateTable._blocking_limit's
        # precedence: Vmax first, then power (TDP), then Iccmax, then NONE.
        self._blocking_codes = np.stack(
            [
                np.where(vmax_ok, _CODE_TDP, _CODE_VMAX),
                np.where(
                    vmax_ok,
                    np.where(iccmax_ok, _CODE_NONE, _CODE_ICCMAX),
                    _CODE_VMAX,
                ),
            ]
        )
        # Leakage laws.  An all-zero group with kt == 0 is stacking padding:
        # its scale is exactly 1 and it adds exactly +0.0, so it is left out.
        def laws(
            kt: np.ndarray, reference_c: np.ndarray, reference_w: np.ndarray
        ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
            return [
                (kt[rows, g], reference_c[rows, g], bins_major(reference_w[rows, g]))
                for g in range(reference_w.shape[1])
                if kt[rows, g].any() or reference_w[rows, g, :edge].any()
            ]

        active_laws = laws(
            stacked.active_kt, stacked.active_reference_c, stacked.active_reference_w
        )
        idle_laws = laws(
            stacked.idle_kt, stacked.idle_reference_c, stacked.idle_reference_w
        )
        # Active and idle laws share one exp evaluation: scale row g belongs
        # to the g-th kept law, active laws first.
        kept = active_laws + idle_laws
        shape = (len(kept), len(rows))
        self._kt = np.array([law[0] for law in kept]).reshape(shape)
        self._reference_c = np.array([law[1] for law in kept]).reshape(shape)
        self._leakage_w = (
            list(enumerate(law[2] for law in active_laws)),
            list(enumerate((law[2] for law in idle_laws), start=len(active_laws))),
        )
        self._uncore_w = stacked.uncore_power_w[rows]
        self._graphics_w = stacked.graphics_idle_power_w[rows]
        self._last_bin = stacked.bin_counts[rows] - 1
        self._sustained_bin = sustained_bin
        self._sustained_code = sustained_code
        self._lowest_sustained = int(sustained_bin.min())
        # The check: feasibility never resumes after a gap, and no reference
        # power falls from one feasible bin to the next.
        resumes = self._static_ok[1:] & ~self._static_ok[:-1]
        self.windowed = not resumes.any() and all(
            bool(np.all((power[1:] >= power[:-1]) | ~self._static_ok[1:]))
            for power in [self._dynamic_w, *(law[2] for law in kept)]
        )
        self._next_window = (0, edge)
        #: The bin range ``[lo, hi)`` the last :meth:`resolve` evaluated.
        self.window = (0, edge)

    def _evaluate(
        self, scale: np.ndarray, limit_w: np.ndarray, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Package power, power verdict and allowed mask of bins ``[lo, hi)``."""
        # Per-bin package power, replicating CandidateTable.package_power_w
        # term by term: (dynamic + active leakage) + idle leakage, then
        # uncore, then graphics.  Each split's leakage groups are summed
        # *before* being added — the scalar path's association.
        package = self._dynamic_w[lo:hi]
        for laws in self._leakage_w:
            leakage = None
            for g, reference_w in laws:
                term = reference_w[lo:hi] * scale[g]
                leakage = term if leakage is None else leakage + term
            if leakage is not None:
                package = package + leakage
        package = (package + self._uncore_w) + self._graphics_w
        power_ok = package <= limit_w
        return package, power_ok, self._static_ok[lo:hi] & power_ok

    def resolve(
        self,
        temperature_c: np.ndarray,
        power_limit_w: np.ndarray,
        armed: np.ndarray,
        budget_w: np.ndarray,
        pl2_w: np.ndarray,
        thermal_cap_w: np.ndarray,
        idle_power_w: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One lockstep DVFS resolution: (frequency, power, limiting, exhausted)."""
        scale = np.exp(self._kt * (temperature_c - self._reference_c))
        limit_w = power_limit_w + 1e-9
        lo, hi = self._next_window
        package, power_ok, allowed = self._evaluate(scale, limit_w, lo, hi)
        bottom_holds = lo == 0 or allowed[0].all()
        top_holds = hi == self.edge or not allowed[-1].any()
        if not (bottom_holds and top_holds):
            lo, hi = 0, self.edge
            package, power_ok, allowed = self._evaluate(scale, limit_w, lo, hi)
        self.window = (lo, hi)
        # Bin selection (CandidateTable.select): highest statically-feasible
        # bin under the instantaneous power limit.  The mul/max form picks
        # the highest allowed index and falls back to 0 when nothing is
        # allowed, matching the scalar path's infeasible-grid handling.
        any_allowed = allowed.any(axis=0)
        index = (allowed * self._bin_range[lo:hi]).max(axis=0)
        if self.windowed:
            low = min(int(index.min()), self._lowest_sustained)
            self._next_window = (
                max(0, low - _WINDOW_BELOW),
                min(self.edge, int(index.max()) + _WINDOW_ABOVE + 1),
            )
        probe = np.where(any_allowed, np.minimum(index + 1, self._last_bin), 0)
        probe_ok = power_ok[probe - lo, self._run_axis]
        limiting = self._blocking_codes[probe_ok.view(np.int8), probe, self._run_axis]
        limiting = np.where(
            any_allowed & (index == self._last_bin), _CODE_FREQUENCY_GRID, limiting
        )
        # A power-limited verdict is thermal when the thermal cap was the
        # binding half of the min(budget, cap) envelope.
        compare = np.where(armed, budget_w, pl2_w)
        limiting = np.where(
            (limiting == _CODE_TDP) & (thermal_cap_w < compare),
            _CODE_THERMAL,
            limiting,
        )
        # Armed runs whose power-limited search decays onto (or below) the
        # sustained bin have spent the turbo bank; exhausted runs latch the
        # sustained (TDP-table) point until an idle gap re-banks budget.
        exhausted = armed & (limiting >= _CODE_TDP) & (index <= self._sustained_bin)
        clamp = ~armed & (index >= self._sustained_bin)
        index = np.where(clamp, self._sustained_bin, index)
        limiting = np.where(clamp, self._sustained_code, limiting)
        frequency = self._frequencies_hz[index, self._run_axis]
        power = package[index - lo, self._run_axis]
        if not self._all_active:
            exhausted = exhausted & self._active
            frequency = np.where(self._active, frequency, 0.0)
            power = np.where(self._active, power, idle_power_w)
            limiting = np.where(self._active, limiting, _CODE_NONE)
        return frequency, power, limiting, exhausted


#: One stretch of the lockstep grid over which no run changes phase:
#: ``(steps, alive, segment, idle_power_w)``.  Runs outside *alive* have
#: ended and keep their state (``None``: every run is alive); *segment*
#: resolves the active runs (``None``: every run idles), and the runs it
#: leaves inactive draw *idle_power_w*.
_Segment = Tuple[int, Optional[np.ndarray], Optional[_ActiveSegment], np.ndarray]


def _lockstep(
    segments: Iterable[_Segment],
    total_steps: int,
    turbo: BatchedTurboBudgetManager,
    thermal: BatchedThermalModel,
    temperature: np.ndarray,
    armed: np.ndarray,
    rebank_threshold_w: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Advance every run through *segments*; the step-major traces.

    The one lockstep step behind :meth:`BatchedDynamicsSimulator.run_batch`
    and :meth:`BatchedDynamicsSimulator.run_population`, replicating
    :meth:`DynamicsSimulator.run` expression for expression for every run.
    Each segment is dropped before the next is pulled, so a generator that
    builds segments on demand (``run_batch``'s) keeps one
    :class:`_ActiveSegment` alive at a time.
    """
    n_runs = len(temperature)
    pl2_w = turbo.pl2_w
    idle_frequency = np.zeros(n_runs)
    idle_limiting = np.full(n_runs, _CODE_NONE, dtype=np.int8)
    # Step-major trace layout: each step writes one contiguous row.
    traces = {
        "frequency_hz": np.zeros((total_steps, n_runs)),
        "power_w": np.zeros((total_steps, n_runs)),
        "temperature_c": np.zeros((total_steps, n_runs)),
        "average_w": np.zeros((total_steps, n_runs)),
        "limiting": np.full((total_steps, n_runs), _CODE_NONE, dtype=np.int8),
    }
    start = 0
    for steps, alive, segment, idle_power_w in segments:
        for t in range(start, start + steps):
            if segment is not None:
                thermal_cap = thermal.max_power_keeping_tjmax_w(temperature)
                budget = turbo.power_budget_w()
                # Armed runs draw up to the EWMA budget; exhausted runs are
                # ceilinged by instantaneous PL2 — both under the thermal cap.
                limit = np.where(
                    armed,
                    np.minimum(budget, thermal_cap),
                    np.minimum(pl2_w, thermal_cap),
                )
                frequency, power, limiting, exhausted = segment.resolve(
                    temperature, limit, armed, budget, pl2_w, thermal_cap,
                    idle_power_w,
                )
            else:
                frequency, power, limiting = idle_frequency, idle_power_w, idle_limiting
                exhausted = None
            average = turbo.account(power, active=alive)
            temperature = thermal.step(temperature, power, active=alive)
            rebank = np.where(average <= rebank_threshold_w, True, armed)
            if exhausted is not None:
                rebank = np.where(exhausted, False, rebank)
            armed = rebank if alive is None else np.where(alive, rebank, armed)
            traces["frequency_hz"][t] = frequency
            traces["power_w"][t] = power
            traces["temperature_c"][t] = temperature
            traces["average_w"][t] = average
            traces["limiting"][t] = limiting
        start += steps
        segment = None  # freed before the next segment is built
    return traces


@dataclass
class PopulationRunTraces:
    """Raw lockstep traces of one scenario stepped over a die population.

    Trace matrices are ``(steps, dice)``; the package C-state trace is
    shared by every die (idle-state selection depends only on the timeline
    and the fuses).  :mod:`repro.variation.population` condenses these into
    percentile traces and per-die summary metrics; keeping the matrices
    raw here lets tests assert bit-identity against the per-die reference
    path.
    """

    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    times_s: np.ndarray
    frequencies_hz: np.ndarray
    package_powers_w: np.ndarray
    temperatures_c: np.ndarray
    average_powers_w: np.ndarray
    limiting_codes: np.ndarray
    cstate_codes: np.ndarray
    cstate_names: Tuple[str, ...]

    @property
    def count(self) -> int:
        """Number of dice in the traces."""
        return self.frequencies_hz.shape[1]

    @property
    def steps(self) -> int:
        """Number of simulation steps."""
        return self.frequencies_hz.shape[0]

    def limiting_factor_names(self) -> np.ndarray:
        """The ``(steps, dice)`` limiting-factor names as an object array."""
        names = np.array(
            [factor.value for factor in LIMITING_FACTOR_ORDER], dtype=object
        )
        return names[self.limiting_codes]

    def package_cstate_names(self) -> List[str]:
        """Per-step package C-state names (shared by every die)."""
        names = np.array(list(self.cstate_names), dtype=object)
        return list(names[self.cstate_codes])


@dataclass
class _RunPlan:
    """Everything one run contributes to the lockstep grid, resolved per phase.

    Phase ``k`` covers steps ``[phase_ends[k - 1], phase_ends[k])``; the
    lockstep loop gathers the per-phase values at segment starts, so no
    per-step vector is built.
    """

    scenario: DynamicScenario
    limits: TurboLimits
    thermal: TransientThermalModel
    initial_temperature_c: float
    initial_armed: bool
    # Per-phase vectors (one entry per scenario phase).
    phase_ends: np.ndarray  # int: steps elapsed at the end of each phase
    table_slot: np.ndarray  # stacked-table row (0 for idle phases)
    is_active: np.ndarray  # bool
    sustained_bin: np.ndarray  # int
    sustained_code: np.ndarray  # limiting-factor code of the sustained point
    idle_power_w: np.ndarray  # float (0 for active phases)
    cstate_codes: np.ndarray  # int8 package-state codes into cstate_names
    cstate_names: Tuple[str, ...]

    @property
    def n_steps(self) -> int:
        return int(self.phase_ends[-1])


class BatchedDynamicsSimulator:
    """Steps an entire sweep grid of dynamic runs in lockstep.

    The per-run :class:`DynamicsSimulator` re-enters the Python interpreter
    every step of every run, which makes ``Study.over_dynamics`` sweeps
    (specs x scenarios x TDP levels) scale with the interpreter rather than
    the hardware.  This simulator instead advances all N runs of a grid at
    once as numpy arrays: every run's candidate table is stacked into one
    :class:`~repro.pmu.dvfs.StackedCandidateTables` and a per-segment
    windowed bin search (``_ActiveSegment``) resolves every run's DVFS bin
    per step, a :class:`~repro.pmu.turbo.BatchedTurboBudgetManager` carries
    every run's EWMA turbo budget, and a
    :class:`~repro.power.thermal.BatchedThermalModel` carries every run's
    thermal RC state.  Runs may differ arbitrarily (specs, scenarios, time
    steps, durations); shorter runs simply freeze once their timeline ends.
    :meth:`run_batch` and :meth:`run_population` differ only in the
    segments they feed one shared lockstep loop (``_lockstep``): a batch
    splits at the union of its runs' phase ends, a population at its one
    scenario's.

    The arithmetic replicates the per-run stepper operation for operation,
    so the trajectories are bit-identical: the same frequency-bin,
    limiting-factor and C-state traces and the same float traces, which
    the equivalence suites assert as exact dataclass equality.  The
    per-run engine stays available as ``method="reference"`` on
    :meth:`~repro.sim.engine.SimulationEngine.run_dynamic_scenario`.
    """

    def __init__(self) -> None:
        # Keyed by Pcode identity: keeps each system's sustained-point and
        # candidate-table caches warm across batches.
        self._simulators: Dict[Pcode, DynamicsSimulator] = {}

    def simulator(self, pcode: Pcode) -> DynamicsSimulator:
        """The per-run (reference) simulator backing *pcode*'s precompute."""
        simulator = self._simulators.get(pcode)
        if simulator is None:
            simulator = DynamicsSimulator(pcode)
            self._simulators[pcode] = simulator
        return simulator

    # -- public API --------------------------------------------------------------------

    def run_batch(
        self, runs: Sequence[Tuple[Pcode, DynamicScenario]]
    ) -> List[DynamicRunResult]:
        """Simulate every (system, scenario) run in lockstep.

        Returns one :class:`~repro.sim.metrics.DynamicRunResult` per run, in
        input order — each equal to what ``DynamicsSimulator(pcode).run(
        scenario)`` produces for that pair.
        """
        if not runs:
            return []
        tables: List[CandidateTable] = []
        table_slots: Dict[int, int] = {}
        plans = [
            self._plan(pcode, scenario, tables, table_slots)
            for pcode, scenario in runs
        ]
        traces = self._step_grid(plans, tables)
        return [
            self._materialise(plan, traces, run_index)
            for run_index, plan in enumerate(plans)
        ]

    # -- precompute --------------------------------------------------------------------

    def _plan(
        self,
        pcode: Pcode,
        scenario: DynamicScenario,
        tables: List[CandidateTable],
        table_slots: Dict[int, int],
    ) -> _RunPlan:
        simulator = self.simulator(pcode)
        limits, thermal, temperature_c, armed = _loop_start(pcode, scenario)
        # One row per phase: (table slot, active, sustained bin and code,
        # idle power, package C-state).
        phases: List[Tuple[int, bool, int, int, float, str]] = []
        for phase in scenario.phases:
            if phase.is_idle:
                state = simulator._resolve_idle_state(phase)
                idle_power_w = pcode.cstate_model.power_w(state)
                phases.append((0, False, 0, _CODE_NONE, idle_power_w, state.value))
                continue
            demand = phase.demand()
            table = pcode.dvfs_policy.candidate_table(demand)
            slot = table_slots.get(id(table))
            if slot is None:
                slot = table_slots[id(table)] = len(tables)
                tables.append(table)
            sustained = simulator._sustained_point(demand, table)
            code = LIMITING_FACTOR_CODES[sustained.limiting]
            phases.append((slot, True, sustained.bin_index, code, 0.0, _C0_NAME))
        slots, active, bins, codes, idle_w, cstates = zip(*phases)
        # Every phase has at least one step, so the per-phase vocabulary is
        # the per-step one the reference stepper builds.
        cstate_codes, cstate_names = encode_cstates(cstates)
        return _RunPlan(
            scenario=scenario,
            limits=limits,
            thermal=thermal,
            initial_temperature_c=temperature_c,
            initial_armed=armed,
            phase_ends=np.cumsum(phase_step_counts(scenario)),
            table_slot=np.asarray(slots),
            is_active=np.asarray(active, dtype=bool),
            sustained_bin=np.asarray(bins),
            sustained_code=np.asarray(codes),
            idle_power_w=np.asarray(idle_w, dtype=float),
            cstate_codes=cstate_codes,
            cstate_names=cstate_names,
        )

    # -- the lockstep grid -------------------------------------------------------------

    def _step_grid(
        self, plans: Sequence[_RunPlan], tables: Sequence[CandidateTable]
    ) -> Dict[str, np.ndarray]:
        total_steps = max(plan.n_steps for plan in plans)
        time_step_s = [plan.scenario.time_step_s for plan in plans]
        stacked = StackedCandidateTables.from_tables(tables) if tables else None
        turbo = BatchedTurboBudgetManager(
            [plan.limits for plan in plans],
            time_step_s=time_step_s,
            initial_average_w=[
                plan.scenario.initial_average_power_w for plan in plans
            ],
        )
        thermal = BatchedThermalModel(
            [plan.thermal for plan in plans], time_step_s=time_step_s
        )
        return _lockstep(
            self._segments(plans, stacked, total_steps),
            total_steps,
            turbo,
            thermal,
            temperature=np.array(
                [plan.initial_temperature_c for plan in plans], dtype=float
            ),
            armed=np.array([plan.initial_armed for plan in plans], dtype=bool),
            rebank_threshold_w=np.array(
                [plan.limits.pl1_w * plan.scenario.rebank_fraction for plan in plans]
            ),
        )

    @staticmethod
    def _segments(
        plans: Sequence[_RunPlan],
        stacked: Optional[StackedCandidateTables],
        total_steps: int,
    ) -> Iterable[_Segment]:
        """The batch's segments: between the union of its runs' phase ends.

        Each plan's per-phase vectors are padded into one ``(runs, phases +
        1)`` matrix, so a segment gathers every run's values in one indexing
        step: a run's phase is the count of its phase ends at or before the
        segment start (ends are padded with ``total_steps``, where no
        segment starts).  A run past its last end lands on the padding —
        inactive, table row 0, zero idle power — and is masked as not alive.
        """
        run_axis = np.arange(len(plans))
        width = max(len(plan.phase_ends) for plan in plans) + 1

        def per_phase(attribute: str, fill: object) -> np.ndarray:
            out = np.full((len(plans), width), fill)
            for run, plan in enumerate(plans):
                values = getattr(plan, attribute)
                out[run, : len(values)] = values
            return out

        ends = per_phase("phase_ends", total_steps)
        table_slot = per_phase("table_slot", 0)
        is_active = per_phase("is_active", False)
        sustained_bin = per_phase("sustained_bin", 0)
        sustained_code = per_phase("sustained_code", _CODE_NONE)
        idle_power_w = per_phase("idle_power_w", 0.0)
        n_steps = np.array([plan.n_steps for plan in plans])
        bounds = sorted({0, *ends.ravel().tolist()})
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            phase = np.count_nonzero(ends <= t0, axis=1)
            alive = t0 < n_steps
            active = is_active[run_axis, phase]
            segment = None  # freed before the next segment is built
            if stacked is not None and active.any():
                segment = _ActiveSegment(
                    stacked,
                    table_slot[run_axis, phase],
                    run_axis,
                    active,
                    sustained_bin[run_axis, phase],
                    sustained_code[run_axis, phase],
                )
            yield (
                int(t1 - t0),
                None if alive.all() else alive,
                segment,
                idle_power_w[run_axis, phase],
            )

    # -- the population (die-variation) fast path --------------------------------------

    def run_population(
        self,
        pcode: Pcode,
        scenario: DynamicScenario,
        population: "DiePopulation",
        shard_size: Optional[int] = None,
    ) -> "PopulationRunTraces | StreamingCellShard":
        """Step one scenario across an entire die population in lockstep.

        *pcode* is the **nominal** system; the population's per-die silicon
        knobs are injected as stacked parameter arrays — candidate tables
        through :meth:`~repro.pmu.dvfs.StackedCandidateTables.from_population`,
        thermal resistance through
        :meth:`~repro.power.thermal.BatchedThermalModel.from_parameters`,
        idle power through the C-state model's varied arithmetic — with no
        per-die Python objects.  Every expression matches what one die's
        ``SystemSpec.variant(die_variation=...)`` build computes, so the
        fast path reproduces the per-die reference path bit for bit.  The
        dice step through the same lockstep loop as :meth:`run_batch`, one
        segment per phase (phases sharing a demand share an
        ``_ActiveSegment``), and the traces keep
        :class:`~repro.sim.metrics.DynamicRunResult`'s int8 limiting and
        C-state codes.

        With *shard_size* unset (the default), the whole population steps
        at once and the full ``(steps, dice)``
        :class:`PopulationRunTraces` matrices come back.  With
        *shard_size* set, the population streams through fixed-size die
        shards instead: each shard's matrices are condensed into the
        bounded accumulators of :mod:`repro.variation.streaming` and
        dropped before the next shard runs, so peak memory is O(shard) —
        the return value is the merged
        :class:`~repro.variation.streaming.StreamingCellShard`.
        Shard-infeasible configurations (``shard_size < 1``,
        ``shard_size > count``) raise :class:`ConfigurationError` with
        actionable messages.
        """
        if pcode.die_variation is not None:
            raise ConfigurationError(
                "run_population needs the nominal system; per-die variation "
                "comes from the population"
            )
        if shard_size is not None:
            return self._run_population_streaming(
                pcode, scenario, population, int(shard_size)
            )
        count = population.count
        processor = pcode.processor
        dt = scenario.time_step_s
        limits, nominal_thermal, temperature_c, armed = _loop_start(pcode, scenario)
        thermal_limits = nominal_thermal.limits
        base_resistance = nominal_thermal.steady_state.thermal_resistance_c_per_w
        resistance = base_resistance * population.thermal_resistance_scale
        thermal = BatchedThermalModel.from_parameters(
            ambient_c=thermal_limits.ambient_c,
            tjmax_c=processor.tjmax_c,
            resistance_c_per_w=resistance,
            capacitance_j_per_c=scenario.thermal_capacitance_j_per_c,
            time_step_s=dt,
        )
        turbo = BatchedTurboBudgetManager(
            [limits] * count,
            time_step_s=[dt] * count,
            initial_average_w=[scenario.initial_average_power_w] * count,
        )
        vr_offset, power_offset = die_voltage_offsets(
            population.vf_offset_v,
            population.powergate_resistance_scale,
            processor.die.cores[0].power_gate.on_resistance_ohm,
            pcode.bypass_mode,
        )
        simulator = self.simulator(pcode)
        run_axis = np.arange(count)
        all_active = np.ones(count, dtype=bool)
        zeros = np.zeros(count)
        by_demand: Dict[CpuDemand, _ActiveSegment] = {}
        segments: List[_Segment] = []
        cstates: List[str] = []
        counts = phase_step_counts(scenario)
        for phase, steps in zip(scenario.phases, counts):
            if phase.is_idle:
                state = simulator._resolve_idle_state(phase)
                idle_power = np.asarray(
                    pcode.cstate_model.varied_power_w(
                        state,
                        population.leakage_scale,
                        population.leakage_kt_delta_per_c,
                    )
                )
                segments.append((steps, None, None, idle_power))
                cstates.append(state.value)
                continue
            demand = phase.demand()
            segment = by_demand.get(demand)
            if segment is None:
                nominal = pcode.dvfs_policy.candidate_table(demand)
                stacked = StackedCandidateTables.from_population(
                    nominal,
                    leakage_scale=population.leakage_scale,
                    kt_delta_per_c=population.leakage_kt_delta_per_c,
                    vr_offset_v=np.asarray(vr_offset),
                    power_offset_v=np.asarray(power_offset),
                )
                sustained_bin, sustained_code, _, _ = resolve_sustained_bins(
                    stacked.population_package_power_w,
                    stacked.vmax_ok,
                    np.asarray(stacked.iccmax_ok),
                    processor.tdp_w,
                    resistance[:, None],
                    thermal_limits.ambient_c,
                    thermal_limits.tjmax_c,
                )
                segment = _ActiveSegment(
                    stacked, run_axis, run_axis, all_active,
                    sustained_bin, sustained_code,
                )
                by_demand[demand] = segment
            segments.append((steps, None, segment, zeros))
            cstates.append(_C0_NAME)

        total_steps = sum(counts)
        traces = _lockstep(
            segments,
            total_steps,
            turbo,
            thermal,
            temperature=np.full(count, temperature_c, dtype=float),
            armed=np.full(count, armed, dtype=bool),
            rebank_threshold_w=np.full(count, limits.pl1_w * scenario.rebank_fraction),
        )
        cstate_codes, cstate_names = encode_cstates(cstates)
        return PopulationRunTraces(
            scenario_name=scenario.name,
            time_step_s=dt,
            pl1_w=limits.pl1_w,
            pl2_w=limits.pl2_w,
            times_s=np.cumsum(np.full(total_steps, dt)),
            frequencies_hz=traces["frequency_hz"],
            package_powers_w=traces["power_w"],
            temperatures_c=traces["temperature_c"],
            average_powers_w=traces["average_w"],
            limiting_codes=traces["limiting"],
            cstate_codes=np.repeat(cstate_codes, counts),
            cstate_names=cstate_names,
        )

    def _run_population_streaming(
        self,
        pcode: Pcode,
        scenario: DynamicScenario,
        population: "DiePopulation",
        shard_size: int,
    ) -> "StreamingCellShard":
        """Stream the population through fixed-size shards, O(shard) memory.

        Each shard's full trace matrices exist only long enough to condense
        into the mergeable accumulators of
        :mod:`repro.variation.streaming`; the merged accumulator is
        returned.  The per-shard dynamics are the ordinary lockstep fast
        path, so every shard's numbers are bit-identical to the
        monolithic run's corresponding die columns.
        """
        # Deferred import: sim must not depend on variation at module
        # level (layering contract); the streaming accumulators live in
        # the variation layer because they understand populations.
        from repro.variation.streaming import (
            ShardPlan,
            condense_population_traces,
            merge_cell_shards,
        )

        plan = ShardPlan(count=population.count, shard_size=shard_size)
        shards = []
        for index in range(plan.n_shards):
            start, stop = plan.shard_bounds(index)
            traces = self.run_population(
                pcode, scenario, population.slice(start, stop)
            )
            shards.append(
                condense_population_traces(pcode, scenario, traces, index)
            )
        return merge_cell_shards(shards)

    # -- result materialisation --------------------------------------------------------

    @staticmethod
    def _materialise(
        plan: _RunPlan, traces: Dict[str, np.ndarray], run_index: int
    ) -> DynamicRunResult:
        n = plan.n_steps
        return DynamicRunResult(
            scenario_name=plan.scenario.name,
            time_step_s=plan.scenario.time_step_s,
            pl1_w=plan.limits.pl1_w,
            pl2_w=plan.limits.pl2_w,
            frequencies_hz=traces["frequency_hz"][:n, run_index],
            package_powers_w=traces["power_w"][:n, run_index],
            temperatures_c=traces["temperature_c"][:n, run_index],
            average_powers_w=traces["average_w"][:n, run_index],
            limiting_codes=traces["limiting"][:n, run_index],
            cstate_codes=np.repeat(
                plan.cstate_codes, np.diff(plan.phase_ends, prepend=0)
            ),
            cstate_names=plan.cstate_names,
        )
