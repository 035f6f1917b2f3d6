"""Scalar turbo accounting: the oracles of the batched turbo meters.

:class:`EwmaPowerMeter` and :class:`TurboBudgetManager` account one run's
PL1/PL2 turbo budget one step at a time.  The per-run dynamics oracle
(:mod:`oracles.dynamics`) steps with them, and the lockstep engine's
:class:`~repro.power.budget.BatchedEwmaMeter` and
:class:`~repro.pmu.turbo.BatchedTurboBudgetManager` must reproduce their
budgets and averages bit for bit.
"""

from __future__ import annotations

import math

from repro.common.validation import ensure_non_negative, ensure_positive
from repro.power.budget import TurboLimits


class EwmaPowerMeter:
    """Exponentially weighted moving average of package power.

    This is the running-average-power accounting behind PL1: after each
    simulation step of constant power ``P`` the average relaxes toward ``P``
    with the window time constant.  The inverse question — "how much power
    may the next step draw without pushing the average past a limit?" — is
    what converts the EWMA state into an instantaneous budget.

    Parameters
    ----------
    tau_s:
        Averaging-window time constant.
    initial_average_w:
        Average at t=0.  Zero (the default) models a package that has been
        idle long enough to bank its full turbo budget.
    """

    def __init__(self, tau_s: float, initial_average_w: float = 0.0) -> None:
        ensure_positive(tau_s, "tau_s")
        ensure_non_negative(initial_average_w, "initial_average_w")
        self._tau_s = tau_s
        self._average_w = initial_average_w

    @property
    def average_w(self) -> float:
        """Present value of the moving average."""
        return self._average_w

    @property
    def tau_s(self) -> float:
        """Averaging-window time constant."""
        return self._tau_s

    def decay(self, time_step_s: float) -> float:
        """EWMA retention factor ``exp(-dt / tau)`` for one step."""
        ensure_positive(time_step_s, "time_step_s")
        return math.exp(-time_step_s / self._tau_s)

    def update(self, power_w: float, time_step_s: float) -> float:
        """Account *time_step_s* of constant *power_w* and return the average."""
        ensure_non_negative(power_w, "power_w")
        keep = self.decay(time_step_s)
        self._average_w = self._average_w * keep + power_w * (1.0 - keep)
        return self._average_w

    def max_power_keeping_average_w(
        self, limit_w: float, time_step_s: float
    ) -> float:
        """Largest next-step power that keeps the updated average <= *limit_w*.

        Inverts :meth:`update` for ``average' == limit_w``; never negative
        (an average already above the limit simply forbids any draw until it
        decays back below).
        """
        ensure_non_negative(limit_w, "limit_w")
        keep = self.decay(time_step_s)
        return max(0.0, (limit_w - self._average_w * keep) / (1.0 - keep))


class TurboBudgetManager:
    """Stateful PL1/PL2 turbo budget with EWMA accounting.

    One manager tracks one closed-loop run: every simulation step asks for
    the instantaneous package power budget, resolves an operating point
    under it, and accounts the power actually drawn.  While the moving
    average sits well below PL1 the budget is the burst limit PL2; as
    sustained draw pulls the average up to PL1 the budget converges to PL1
    (the TDP), which is exactly the burst-then-throttle shape of the paper's
    TDP-limited systems.

    Parameters
    ----------
    limits:
        The PL1/PL2/tau configuration.
    initial_average_w:
        Starting EWMA of package power; zero models a fully banked budget.
    """

    def __init__(self, limits: TurboLimits, initial_average_w: float = 0.0) -> None:
        self._limits = limits
        self._meter = EwmaPowerMeter(
            tau_s=limits.tau_s, initial_average_w=initial_average_w
        )

    @property
    def limits(self) -> TurboLimits:
        """The PL1/PL2 configuration in force."""
        return self._limits

    @property
    def average_power_w(self) -> float:
        """Present EWMA of accounted package power."""
        return self._meter.average_w

    def power_budget_w(self, time_step_s: float) -> float:
        """Package power the next *time_step_s* may draw.

        The binding constraint is the tighter of the instantaneous PL2
        limit and the largest draw that keeps the EWMA at or below PL1.
        """
        pl1_bound = self._meter.max_power_keeping_average_w(
            self._limits.pl1_w, time_step_s
        )
        return min(self._limits.pl2_w, pl1_bound)

    def account(self, power_w: float, time_step_s: float) -> float:
        """Record *time_step_s* of constant *power_w*; returns the new average."""
        return self._meter.update(power_w, time_step_s)

    def headroom_w(self) -> float:
        """How far the moving average sits below PL1 (negative when over)."""
        return self._limits.pl1_w - self._meter.average_w
