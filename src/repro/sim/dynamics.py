"""The closed-loop Pcode dynamics engine.

The steady-state models resolve *operating points*; this module resolves
*trajectories*.  :class:`BatchedDynamicsSimulator` steps
:class:`~repro.workloads.dynamics.DynamicScenario` timelines through time,
closing the loop between four firmware/physics subsystems every step:

1. **Turbo power budget** — a PL1/PL2 pair with EWMA accounting
   (:class:`~repro.pmu.turbo.BatchedTurboBudgetManager`): the package may
   burst to PL2 while the moving average of power has headroom below PL1
   (the TDP), then the budget squeezes back to the sustained level.
2. **Thermal RC model** — the junction temperature follows the exponential
   step response of :class:`~repro.power.thermal.TransientThermalModel`, and
   a thermal throttle caps the next step's power so Tjmax is never crossed.
3. **DVFS re-resolution** — every step picks the highest 100 MHz bin that
   satisfies Vmax, Iccmax and the *instantaneous* power limit at the
   *current* junction temperature, on the demand's
   :class:`~repro.pmu.dvfs.CandidateTable`.
4. **Package C-states** — idle gaps enter the state the break-even ladder
   allows for their duration (clamped at the fused deepest state), and the
   idle power both cools the die and re-banks the turbo budget.

Once a sustained stretch exhausts the turbo budget (the EWMA reaches PL1),
the firmware latches the *sustained* operating point — the TDP-table fixed
point :meth:`~repro.pmu.dvfs.DvfsPolicy.sustained_bin` solves on the
candidate table the run steps on, the bin
:meth:`~repro.pmu.dvfs.DvfsPolicy.resolve` reports — until an idle gap
re-banks enough budget.  This reproduces the paper's TDP-limited behaviour
exactly: a long constant-demand scenario converges to the same 100 MHz bin
(and thermal fixed point) the steady-state resolver reports, while low-TDP
configurations show the PL2-burst-then-throttle transient on the way
there.

Every run steps through one lockstep loop (``_lockstep``) as numpy arrays.
The per-run Python stepper it is asserted bit-identical with lives in
``tests/oracles/dynamics.py``.
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
    StackedCandidateTables,
    die_voltage_offsets,
    resolve_sustained_bins,
)
from repro.pmu.pcode import Pcode
from repro.pmu.turbo import BatchedTurboBudgetManager
from repro.power.budget import TurboLimits
from repro.power.thermal import BatchedThermalModel, TransientThermalModel
from repro.sim.metrics import MAX_FREQUENCY_LEVELS, DynamicRunResult, encode_cstates
from repro.workloads.dynamics import AUTO_CSTATE, DynamicPhase, DynamicScenario

if TYPE_CHECKING:
    from repro.variation.sampler import DiePopulation


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


def resolve_idle_state(pcode: Pcode, phase: DynamicPhase) -> PackageCState:
    """The package C-state idle *phase* enters on *pcode*.

    ``"auto"`` picks the deepest state the break-even ladder allows for the
    phase's duration, ``"deepest"`` the fused deepest state; a named state
    is clamped to the fused deepest.  Pinning C0 is an error.
    """
    deepest = pcode.deepest_package_cstate()
    name = phase.package_cstate.strip()
    if name.lower() == AUTO_CSTATE:
        return cstate_for_idle_duration(phase.duration_s, deepest)
    if name.lower() == "deepest":
        return deepest
    state = PackageCState.from_name(name)
    if state is PackageCState.C0:
        raise ConfigurationError(f"idle phase {phase.name!r} cannot pin package C0")
    return state if state.depth <= deepest.depth else deepest


# -- the lockstep loop -----------------------------------------------------------------


#: Trace code of the active package state.
_C0_NAME = PackageCState.C0.value

#: Limiting-factor codes as int8 scalars: a segment's per-bin code tables
#: are then built without (bins, runs) int64 temporaries.
_CODE_VMAX = np.int8(LIMITING_FACTOR_CODES[LimitingFactor.VMAX])
_CODE_TDP = np.int8(LIMITING_FACTOR_CODES[LimitingFactor.TDP])
_CODE_ICCMAX = np.int8(LIMITING_FACTOR_CODES[LimitingFactor.ICCMAX])
_CODE_THERMAL = np.int8(LIMITING_FACTOR_CODES[LimitingFactor.THERMAL])
_CODE_FREQUENCY_GRID = np.int8(LIMITING_FACTOR_CODES[LimitingFactor.FREQUENCY_GRID])
_CODE_NONE = np.int8(LIMITING_FACTOR_CODES[LimitingFactor.NONE])

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
    expression for expression, written into buffers the segment owns and
    into the caller's trace rows.

    The constructor prepares a windowed bin search:

    * **Trim.**  No selection lands above the highest statically (Vmax and
      Iccmax) feasible bin of any active run, and the limit report probes
      at most one bin above the selection, so only bins ``0 .. top
      feasible + 1`` are kept (``edge`` is the trimmed bin count).
    * **Bins-major layout.**  Every per-bin matrix is stored ``(bins,
      runs)``, so a window of bins is a contiguous row slice.
    * **Padding groups dropped.**  An all-zero leakage group with ``kt ==
      0`` (stacking padding) has a scale of exactly 1 and adds exactly
      ``+0.0``, so leaving it out changes no bit.
    * **Frequency codes.**  Bin ``b`` writes frequency code ``b + 1``, the
      run's level table being 0.0 Hz followed by its grid.
    * **Idle runs.**  A run idling in this segment allows no bin, and its
      bin 0 reads frequency code 0 (0 Hz), limiting code NONE and exactly
      *idle_power_w* (default 0 W; its other power terms are zeroed), so a
      step needs no activity mask.
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
    sustained bin, to two above the previous step's highest top bin.  One
    ``argmin`` counts each run's allowed prefix there (the row above the
    window is cleared first; row ``edge`` is never written).  The window is
    accepted when the counts show that every answer lies inside: ``lo ==
    0`` or every run allows bin ``lo``, and ``hi == edge`` or no run allows
    bin ``hi - 1``.  Otherwise — and on every step of a segment that fails
    the check, where a ``max`` finds the highest allowed bin — the same code
    evaluates the whole trimmed range.  Either way the results are
    bit-identical to evaluating every bin.  The rest of the step reads each
    run's ``top``, the bin above its highest allowed one (0 when none is
    allowed): the probe whose blocking limit it reports, one above the bin
    it selects (bin 0 when none is allowed).
    """

    def __init__(
        self,
        stacked: StackedCandidateTables,
        rows: np.ndarray,
        run_axis: np.ndarray,
        active: np.ndarray,
        sustained_bin: np.ndarray,
        sustained_code: np.ndarray,
        idle_power_w: Optional[np.ndarray] = None,
    ) -> None:
        runs, idle = len(rows), ~active
        if stacked.frequencies_hz.shape[1] >= MAX_FREQUENCY_LEVELS:
            raise ConfigurationError(
                f"a frequency grid of {stacked.frequencies_hz.shape[1]} bins "
                f"needs more than the {MAX_FREQUENCY_LEVELS} levels int8 "
                "frequency codes address"
            )
        static_ok = stacked.vmax_ok[rows] & stacked.iccmax_ok[rows] & active[:, None]
        feasible_bins = np.flatnonzero(static_ok.any(axis=0))
        top_feasible = int(feasible_bins[-1]) if len(feasible_bins) else -1
        self.edge = edge = min(static_ok.shape[1], top_feasible + 2)

        def bins_major(matrix: np.ndarray) -> np.ndarray:
            out = np.ascontiguousarray(matrix[:, :edge].T)
            out[:, idle] = 0
            return out

        def per_bin(values: np.ndarray) -> np.ndarray:
            # A same-shape add costs half a broadcast one at batch widths.
            return bins_major(np.repeat(values[:, None], edge, axis=1))

        vmax_ok = bins_major(stacked.vmax_ok[rows])
        iccmax_ok = bins_major(stacked.iccmax_ok[rows])
        self._static_ok = vmax_ok & iccmax_ok
        self._frequency_codes = bins_major(
            np.tile(np.arange(1, edge + 1, dtype=np.int8), (runs, 1))
        ).ravel()
        self._dynamic_w = bins_major(stacked.active_dynamic_w[rows])
        self._uncore_w = per_bin(stacked.uncore_power_w[rows])
        self._graphics_w = per_bin(stacked.graphics_idle_power_w[rows])
        if idle_power_w is not None:
            self._graphics_w[:, idle] = idle_power_w[idle]
        self._bin_above = np.arange(1, edge + 1)[:, None]
        # Limiting code at the probe bin, in resolve_sustained_bins'
        # precedence (Vmax first, then power, then Iccmax, then NONE): when
        # the probe fails the power limit, fails it with the thermal cap
        # binding, or passes it.  A probe past a run's last bin means its
        # top bin is allowed.  An armed run spends its turbo bank when its
        # probe fails the power limit at most one bin above its sustained
        # bin (the selection at or below it).
        codes = np.full((3, edge + 1, runs), _CODE_FREQUENCY_GRID, dtype=np.int8)
        blocked = np.where(iccmax_ok, _CODE_NONE, _CODE_ICCMAX)
        for verdict, code in enumerate((_CODE_TDP, _CODE_THERMAL, blocked)):
            codes[verdict, :edge] = np.where(vmax_ok, code, _CODE_VMAX)
        probe = np.arange(edge + 1)[:, None]
        codes[:, probe > stacked.bin_counts[rows] - 1] = _CODE_FREQUENCY_GRID
        codes[:, :, idle] = _CODE_NONE
        self._fail_codes, self._thermal_codes, self._pass_codes = codes.reshape(3, -1)
        spends = (codes[0] == _CODE_TDP) & (probe <= sustained_bin + 1)
        self._keeps_bank = ~spends.ravel()
        # Leakage laws.  An all-zero group with kt == 0 is stacking padding:
        # its scale is exactly 1 and it adds exactly +0.0, so it is left out.
        def laws(
            kt: np.ndarray, reference_c: np.ndarray, reference_w: np.ndarray
        ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
            return [
                (
                    np.where(active, kt[rows, g], 0.0),
                    reference_c[rows, g],
                    bins_major(reference_w[rows, g]),
                )
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
        shape = (len(kept), runs)
        self._kt = np.array([law[0] for law in kept]).reshape(shape)
        self._reference_c = np.array([law[1] for law in kept]).reshape(shape)
        self._leakage_w = (
            list(enumerate(law[2] for law in active_laws)),
            list(enumerate((law[2] for law in idle_laws), start=len(active_laws))),
        )
        # Per-run operands (a Python scalar slows each ufunc call it enters)
        # and the step's buffers.
        self._run_axis = run_axis
        self._runs = np.full(runs, runs)
        self._tolerance = np.full(runs, 1e-9)
        self._sustained_flat = sustained_bin * runs + run_axis
        self._sustained_code = sustained_code.astype(np.int8)
        self._clamp_from = np.where(sustained_bin == 0, 0, sustained_bin + 1)
        self._lowest_sustained = int(sustained_bin.min())
        self._package = np.empty((edge, runs))
        self._leakage = np.empty((edge, runs))
        self._power_ok = np.zeros((edge + 1, runs), dtype=bool)
        self._allowed = np.zeros((edge + 1, runs), dtype=bool)
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
    ) -> np.ndarray:
        """Package power, power verdict and allowed mask of bins ``[lo, hi)``.

        Written to rows ``lo .. hi - 1`` of the buffers; returns the allowed
        rows ``lo .. hi``, the last of them False.
        """
        # Per-bin package power, replicating CandidateTable.package_power_w
        # term by term: (dynamic + active leakage) + idle leakage, then
        # uncore, then graphics.  Each split's leakage groups are summed
        # *before* being added — the scalar path's association.
        package = self._package[lo:hi]
        total = self._dynamic_w[lo:hi]
        for laws in self._leakage_w:
            leakage = None
            for g, reference_w in laws:
                if leakage is None:
                    leakage = self._leakage[lo:hi]
                    np.multiply(reference_w[lo:hi], scale[g], out=leakage)
                else:
                    np.add(leakage, reference_w[lo:hi] * scale[g], out=leakage)
            if leakage is not None:
                total = np.add(total, leakage, out=package)
        np.add(total, self._uncore_w[lo:hi], out=package)
        np.add(package, self._graphics_w[lo:hi], out=package)
        power_ok = np.less_equal(package, limit_w, out=self._power_ok[lo:hi])
        np.logical_and(self._static_ok[lo:hi], power_ok, out=self._allowed[lo:hi])
        if hi < self.edge:
            self._allowed[hi] = False
        return self._allowed[lo : hi + 1]

    def _count(
        self, scale: np.ndarray, limit_w: np.ndarray, lo: int, hi: int
    ) -> Tuple[np.ndarray, int, int]:
        """Each run's count of allowed bins in ``[lo, hi)``, and the extremes."""
        count = self._evaluate(scale, limit_w, lo, hi).argmin(axis=0)
        return count, int(count[count.argmin()]), int(count[count.argmax()])

    def resolve(
        self,
        temperature_c: np.ndarray,
        envelope_w: np.ndarray,
        thermal_cap_w: np.ndarray,
        armed: np.ndarray,
        frequency_code: np.ndarray,
        power_w: np.ndarray,
        limiting: np.ndarray,
    ) -> np.ndarray:
        """One lockstep DVFS resolution, written into the trace rows.

        Each run draws under ``min(envelope, thermal cap)``: *envelope_w* is
        an armed run's EWMA budget and an exhausted run's PL2.  Fills
        *frequency_code*, *power_w* and *limiting*; returns which runs keep
        their turbo bank.
        """
        scale = np.exp(self._kt * (temperature_c - self._reference_c))
        limit_w = np.minimum(envelope_w, thermal_cap_w) + self._tolerance
        lo, hi = self._next_window
        if self.windowed:
            top, fewest, most = self._count(scale, limit_w, lo, hi)
            # Unless every run allows bin lo and none bin hi - 1, retry all.
            if (lo and not fewest) or (hi < self.edge and most == hi - lo):
                lo, hi = 0, self.edge
                top, fewest, most = self._count(scale, limit_w, lo, hi)
            if lo:
                top += lo
            low = min(max(lo + fewest - 1, 0), self._lowest_sustained)
            self._next_window = (
                max(0, low - _WINDOW_BELOW),
                min(self.edge, max(lo + most - 1, 0) + _WINDOW_ABOVE + 1),
            )
        else:
            allowed = self._evaluate(scale, limit_w, lo, hi)[:-1]
            top = (allowed * self._bin_above).max(axis=0)
        self.window = (lo, hi)
        flat = top * self._runs + self._run_axis
        # The probe's blocking limit; a power-limited verdict is thermal when
        # the thermal cap was the binding half of the envelope.
        passed = self._power_ok.ravel().take(flat)
        self._fail_codes.take(flat, out=limiting, mode="clip")
        thermal = thermal_cap_w < envelope_w
        np.copyto(limiting, self._thermal_codes.take(flat), where=thermal)
        np.copyto(limiting, self._pass_codes.take(flat), where=passed)
        # Exhausted runs whose search reaches the sustained bin latch the
        # sustained (TDP-table) point until an idle gap re-banks budget.
        clamp = (top >= self._clamp_from) > armed
        np.copyto(limiting, self._sustained_code, where=clamp)
        # Selected: the highest allowed bin, or bin 0 (the infeasible-grid
        # report of resolve_sustained_bins) when none is allowed.
        selected = np.maximum(flat - self._runs, self._run_axis)
        np.copyto(selected, self._sustained_flat, where=clamp)
        self._frequency_codes.take(selected, out=frequency_code, mode="clip")
        self._package.ravel().take(selected, out=power_w, mode="clip")
        return passed | self._keeps_bank.take(flat)


#: One stretch of the lockstep grid over which no run changes phase:
#: ``(steps, segment, idle_power_w)``; with no *segment* every run idles.
_Segment = Tuple[int, Optional[_ActiveSegment], np.ndarray]


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
    and :meth:`BatchedDynamicsSimulator.run_population`, replicating the
    per-run stepper expression for expression for every run.  Each step
    writes its trace rows in place (the frequency as an int8 code: bin + 1,
    or 0 on an idle step) and reads the previous temperature and average
    rows back as its state.  A run past the end of its timeline idles at
    0 W; those rows are never read.  Each segment is dropped
    before the next is pulled, so a generator that builds segments on
    demand (``run_batch``'s) keeps one :class:`_ActiveSegment` alive at a
    time.
    """
    n_runs = len(temperature)
    pl2_w = turbo.pl2_w
    # Step-major trace layout: each step writes one contiguous row.
    traces = {
        "frequency_code": np.zeros((total_steps, n_runs), dtype=np.int8),
        "power_w": np.zeros((total_steps, n_runs)),
        "temperature_c": np.zeros((total_steps, n_runs)),
        "average_w": np.zeros((total_steps, n_runs)),
        "limiting": np.full((total_steps, n_runs), _CODE_NONE, dtype=np.int8),
    }
    frequency_code, power_w, temperature_c, average_w, limiting = traces.values()
    average = turbo.initial_average_w
    start = 0
    for steps, segment, idle_power_w in segments:
        if segment is None:
            power_w[start : start + steps] = idle_power_w
        for t in range(start, start + steps):
            power = power_w[t]
            if segment is not None:
                thermal_cap = thermal.max_power_keeping_tjmax_w(temperature)
                # Armed runs draw up to the EWMA budget; exhausted runs are
                # ceilinged by instantaneous PL2 — both under the thermal cap.
                envelope = np.where(armed, turbo.power_budget_w(average), pl2_w)
                banked = segment.resolve(
                    temperature, envelope, thermal_cap, armed,
                    frequency_code[t], power, limiting[t],
                )
            average = turbo.account(average, power, out=average_w[t])
            temperature = thermal.step(temperature, power, out=temperature_c[t])
            # Runs re-arm once the average falls to the re-bank threshold;
            # armed runs stay armed until they spend the bank.
            rearm = average <= rebank_threshold_w
            if segment is None:
                armed = rearm | armed
            else:
                np.copyto(rearm, banked, where=armed)
                armed = rearm
        start += steps
        segment = None  # freed before the next segment is built
    return traces


@dataclass
class PopulationRunTraces:
    """Raw lockstep traces of one scenario stepped over a die population.

    Trace matrices are ``(steps, dice)``; the package C-state trace is
    shared by every die (idle-state selection depends only on the timeline
    and the fuses).  Frequencies are int8 codes into
    ``frequency_levels_hz``: 0.0 Hz, then the nominal frequency grid (not
    compacted like :class:`~repro.sim.metrics.DynamicRunResult`'s: the
    streaming accumulator drops the unused levels itself);
    ``frequencies_hz`` is the derived float matrix.
    :mod:`repro.variation.population` condenses these into percentile
    traces and per-die summary metrics; keeping the matrices raw here lets
    tests assert bit-identity against per-die stepping.
    """

    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    times_s: np.ndarray
    frequency_codes: np.ndarray
    frequency_levels_hz: np.ndarray
    package_powers_w: np.ndarray
    temperatures_c: np.ndarray
    average_powers_w: np.ndarray
    limiting_codes: np.ndarray
    cstate_codes: np.ndarray
    cstate_names: Tuple[str, ...]

    @property
    def count(self) -> int:
        """Number of dice in the traces."""
        return self.frequency_codes.shape[1]

    @property
    def steps(self) -> int:
        """Number of simulation steps."""
        return self.frequency_codes.shape[0]

    @property
    def frequencies_hz(self) -> np.ndarray:
        """The ``(steps, dice)`` frequencies in Hz (0.0 on idle steps)."""
        return self.frequency_levels_hz.take(self.frequency_codes)

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
    frequency_levels_hz: np.ndarray  # 0.0 Hz, then the run's frequency grid

    @property
    def n_steps(self) -> int:
        return int(self.phase_ends[-1])


class BatchedDynamicsSimulator:
    """Steps an entire sweep grid of dynamic runs in lockstep.

    A per-run stepper re-enters the Python interpreter every step of every
    run, which makes ``Study.over_dynamics`` sweeps (specs x scenarios x
    TDP levels) scale with the interpreter rather than the hardware.  This
    simulator instead advances all N runs of a grid at once as numpy
    arrays: every run's candidate table is stacked into one
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
    the equivalence suites assert as exact dataclass equality against the
    per-run oracle in ``tests/oracles/dynamics.py``.
    """

    # -- public API --------------------------------------------------------------------

    def run_batch(
        self, runs: Sequence[Tuple[Pcode, DynamicScenario]]
    ) -> List[DynamicRunResult]:
        """Simulate every (system, scenario) run in lockstep.

        Returns one :class:`~repro.sim.metrics.DynamicRunResult` per run, in
        input order — each equal to what the per-run stepper produces for
        that pair.
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

    @staticmethod
    def _plan(
        pcode: Pcode,
        scenario: DynamicScenario,
        tables: List[CandidateTable],
        table_slots: Dict[int, int],
    ) -> _RunPlan:
        limits, thermal, temperature_c, armed = _loop_start(pcode, scenario)
        # One row per phase: (table slot, active, sustained bin and code,
        # idle power, package C-state).
        phases: List[Tuple[int, bool, int, int, float, str]] = []
        grid = np.empty(0)  # every table of one pcode shares its grid
        for phase in scenario.phases:
            if phase.is_idle:
                state = resolve_idle_state(pcode, phase)
                idle_power_w = pcode.cstate_model.power_w(state)
                phases.append((0, False, 0, _CODE_NONE, idle_power_w, state.value))
                continue
            demand = phase.demand()
            table = pcode.dvfs_policy.candidate_table(demand)
            grid = table.frequencies_hz
            slot = table_slots.get(id(table))
            if slot is None:
                slot = table_slots[id(table)] = len(tables)
                tables.append(table)
            sustained = pcode.dvfs_policy.sustained_bin(demand)
            code = LIMITING_FACTOR_CODES[sustained.limiting]
            phases.append((slot, True, sustained.bin_index, code, 0.0, _C0_NAME))
        slots, active, bins, codes, idle_w, cstates = zip(*phases)
        # Every phase has at least one step, so the per-phase vocabulary is
        # the per-step one the per-run stepper builds.
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
            frequency_levels_hz=np.concatenate(([0.0], grid)),
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
        segment starts).  A run past its last end lands on the padding:
        it idles at 0 W on table row 0.
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
        bounds = sorted({0, *ends.ravel().tolist()})
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            phase = np.count_nonzero(ends <= t0, axis=1)
            active = is_active[run_axis, phase]
            idle_power = idle_power_w[run_axis, phase]
            segment = None  # freed before the next segment is built
            if stacked is not None and active.any():
                segment = _ActiveSegment(
                    stacked,
                    table_slot[run_axis, phase],
                    run_axis,
                    active,
                    sustained_bin[run_axis, phase],
                    sustained_code[run_axis, phase],
                    idle_power,
                )
            yield int(t1 - t0), segment, idle_power

    # -- the population (die-variation) fast path --------------------------------------

    def run_population(
        self,
        pcode: Pcode,
        scenario: DynamicScenario,
        population: "DiePopulation",
    ) -> PopulationRunTraces:
        """Step one scenario across an entire die population in lockstep.

        *pcode* is the **nominal** system; the population's per-die silicon
        knobs are injected as stacked parameter arrays — candidate tables
        through :meth:`~repro.pmu.dvfs.StackedCandidateTables.from_population`,
        thermal resistance through
        :meth:`~repro.power.thermal.BatchedThermalModel.from_parameters`,
        idle power through the C-state model's varied arithmetic — with no
        per-die Python objects.  Every expression matches what one die's
        ``SystemSpec.variant(die_variation=...)`` build computes, so the
        fast path reproduces stepping each die's own build bit for bit.  The
        dice step through the same lockstep loop as :meth:`run_batch`, one
        segment per phase (phases sharing a demand share an
        ``_ActiveSegment``), and the traces keep
        :class:`~repro.sim.metrics.DynamicRunResult`'s int8 frequency,
        limiting and C-state codes.

        The whole population steps at once and the full ``(steps, dice)``
        :class:`PopulationRunTraces` matrices come back.  To bound memory,
        step one die range at a time: the streaming population study's
        shard task (``run_cell_shard``) samples a shard, runs it here and
        condenses the traces before the next shard runs.
        """
        if pcode.die_variation is not None:
            raise ConfigurationError(
                "run_population needs the nominal system; per-die variation "
                "comes from the population"
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
        run_axis = np.arange(count)
        all_active = np.ones(count, dtype=bool)
        zeros = np.zeros(count)
        by_demand: Dict[CpuDemand, _ActiveSegment] = {}
        grid = np.empty(0)  # every table of one pcode shares its grid
        segments: List[_Segment] = []
        cstates: List[str] = []
        counts = phase_step_counts(scenario)
        for phase, steps in zip(scenario.phases, counts):
            if phase.is_idle:
                state = resolve_idle_state(pcode, phase)
                idle_power = np.asarray(
                    pcode.cstate_model.varied_power_w(
                        state,
                        population.leakage_scale,
                        population.leakage_kt_delta_per_c,
                    )
                )
                segments.append((steps, None, idle_power))
                cstates.append(state.value)
                continue
            demand = phase.demand()
            segment = by_demand.get(demand)
            if segment is None:
                nominal = pcode.dvfs_policy.candidate_table(demand)
                grid = nominal.frequencies_hz
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
            segments.append((steps, segment, zeros))
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
            frequency_codes=traces["frequency_code"],
            frequency_levels_hz=np.concatenate(([0.0], grid)),
            package_powers_w=traces["power_w"],
            temperatures_c=traces["temperature_c"],
            average_powers_w=traces["average_w"],
            limiting_codes=traces["limiting"],
            cstate_codes=np.repeat(cstate_codes, counts),
            cstate_names=cstate_names,
        )

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
            frequency_codes=traces["frequency_code"][:n, run_index],
            frequency_levels_hz=plan.frequency_levels_hz,
            package_powers_w=traces["power_w"][:n, run_index],
            temperatures_c=traces["temperature_c"][:n, run_index],
            average_powers_w=traces["average_w"][:n, run_index],
            limiting_codes=traces["limiting"][:n, run_index],
            cstate_codes=np.repeat(
                plan.cstate_codes, np.diff(plan.phase_ends, prepend=0)
            ),
            cstate_names=plan.cstate_names,
        )
