"""Multi-core turbo tables and the time-dependent turbo power budget.

Intel client parts publish a "turbo table": the maximum frequency the cores
may reach as a function of how many of them are active.  In this library the
table is derived from the guardbanded V/F curve — more active cores means a
higher power-virus level, a larger guardband, and therefore a lower
Vmax-limited frequency.  The DVFS policy applies TDP/Iccmax on top of it.

:class:`BatchedTurboBudgetManager` adds the *temporal* half of turbo
(Section 2.1): the PL1/PL2 limit pair with EWMA accounting that lets the
package burst to PL2 while the moving average of power has headroom below
PL1, then squeezes the budget back to the sustained (TDP) level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.pmu.vf_curve import VfCurve
from repro.power.budget import BatchedEwmaMeter, TurboLimits


@dataclass(frozen=True)
class TurboTable:
    """Maximum (Vmax-limited) frequency per active-core count."""

    max_frequency_by_active_cores: Dict[int, float]

    def __post_init__(self) -> None:
        if not self.max_frequency_by_active_cores:
            raise ConfigurationError("turbo table must not be empty")
        counts = sorted(self.max_frequency_by_active_cores)
        if counts[0] < 1:
            raise ConfigurationError("active-core counts must start at 1")
        previous = float("inf")
        for count in counts:
            frequency = self.max_frequency_by_active_cores[count]
            if frequency > previous + 1e-6:
                raise ConfigurationError(
                    "turbo frequency must not increase with more active cores"
                )
            previous = frequency

    # -- queries -----------------------------------------------------------------------

    def max_frequency_hz(self, active_cores: int) -> float:
        """Turbo ceiling for *active_cores* active cores."""
        counts = sorted(self.max_frequency_by_active_cores)
        if active_cores < 1:
            raise ConfigurationError("active_cores must be >= 1")
        eligible = [c for c in counts if c >= active_cores]
        key = eligible[0] if eligible else counts[-1]
        return self.max_frequency_by_active_cores[key]

    def single_core_turbo_hz(self) -> float:
        """The 1-core turbo ceiling."""
        return self.max_frequency_hz(1)

    def all_core_turbo_hz(self) -> float:
        """The all-core turbo ceiling."""
        return self.max_frequency_by_active_cores[max(self.max_frequency_by_active_cores)]

    def rows(self) -> List[tuple[int, float]]:
        """(active cores, max frequency) rows for reporting."""
        return sorted(self.max_frequency_by_active_cores.items())

    # -- construction ---------------------------------------------------------------------

    @classmethod
    def from_vf_curve(cls, vf_curve: VfCurve, core_count: int) -> "TurboTable":
        """Derive the turbo table from a guardbanded V/F curve."""
        if core_count < 1:
            raise ConfigurationError("core_count must be >= 1")
        table = {
            active: vf_curve.fmax_hz(active) for active in range(1, core_count + 1)
        }
        # Enforce monotonicity against guardband-model noise.
        best = float("inf")
        for active in sorted(table):
            best = min(best, table[active])
            table[active] = best
        return cls(max_frequency_by_active_cores=table)


class BatchedTurboBudgetManager:
    """Stateful PL1/PL2 turbo budget over a batch of lockstep runs.

    One manager tracks one *grid* of closed-loop runs, each with its own
    PL1/PL2 pair, EWMA window and time step.  The arithmetic matches the
    scalar ``TurboBudgetManager`` (the oracle in ``tests/oracles/turbo.py``)
    expression for expression, so batched budget/accounting trajectories
    are bit-identical to per-run stepping.  The per-run averages belong to
    the caller (the lockstep loop keeps them in its trace rows, starting
    from :attr:`initial_average_w`).

    Parameters
    ----------
    limits:
        One :class:`~repro.power.budget.TurboLimits` per run.
    time_step_s:
        Per-run (constant) simulation steps.
    initial_average_w:
        Per-run EWMA of package power at t=0.
    """

    def __init__(
        self,
        limits: Sequence[TurboLimits],
        time_step_s: Sequence[float],
        initial_average_w: Sequence[float],
    ) -> None:
        if not (len(limits) == len(time_step_s) == len(initial_average_w)):
            raise ConfigurationError(
                "limits, time_step_s and initial_average_w must align"
            )
        averages = np.array(initial_average_w, dtype=float)
        if (averages < 0).any():
            raise ConfigurationError("initial_average_w must be >= 0")
        self._initial_average_w = averages
        self._pl1_w = np.array([limit.pl1_w for limit in limits], dtype=float)
        self._pl2_w = np.array([limit.pl2_w for limit in limits], dtype=float)
        self._meter = BatchedEwmaMeter(
            tau_s=[limit.tau_s for limit in limits], time_step_s=time_step_s
        )

    @property
    def pl2_w(self) -> np.ndarray:
        """Per-run burst power limits."""
        return self._pl2_w

    @property
    def initial_average_w(self) -> np.ndarray:
        """Per-run EWMAs of package power at t=0."""
        return self._initial_average_w

    def power_budget_w(self, average_w: np.ndarray) -> np.ndarray:
        """Per-run package power the next step may draw (PL2-clamped)."""
        pl1_bound = self._meter.max_power_keeping_average_w(average_w, self._pl1_w)
        return np.minimum(self._pl2_w, pl1_bound)

    def account(
        self, average_w: np.ndarray, power_w: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """The per-run averages after one step of *power_w*, in *out*."""
        return self._meter.update(average_w, power_w, out)
