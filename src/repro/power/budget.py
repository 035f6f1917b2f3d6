"""Shared power-budget bookkeeping.

The SoC's compute domain (CPU cores plus graphics engine) shares one power
budget, distributed at runtime by the power-budget-management (PBM)
algorithm of the PMU (paper Section 2.1).  This module provides the simple
accounting objects PBM operates on; the allocation *policy* lives in
:mod:`repro.pmu.pbm`.

It also provides the *time-dependent* budget objects behind the turbo
behaviour of Section 2.1: the PL1/PL2 power-limit pair and the exponentially
weighted moving-average (EWMA) accounting the firmware uses to decide how
far above TDP a burst may go and for how long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigurationError, ConstraintViolation
from repro.common.validation import ensure_non_negative, ensure_positive


@dataclass(frozen=True)
class DomainPower:
    """Power attributed to one SoC domain."""

    domain: str
    dynamic_w: float
    leakage_w: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.dynamic_w, "dynamic_w")
        ensure_non_negative(self.leakage_w, "leakage_w")

    @property
    def total_w(self) -> float:
        """Total (dynamic plus leakage) power of the domain."""
        return self.dynamic_w + self.leakage_w


@dataclass
class PowerBudget:
    """A fixed total budget being split across named domains.

    Parameters
    ----------
    total_w:
        The budget ceiling (normally the configuration's TDP).
    """

    total_w: float
    allocations: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ensure_positive(self.total_w, "total_w")

    # -- allocation ----------------------------------------------------------------

    def allocate(self, domain: str, power_w: float) -> None:
        """Reserve *power_w* of the budget for *domain*.

        Raises :class:`~repro.common.errors.ConstraintViolation` when the
        reservation would exceed the total budget.
        """
        ensure_non_negative(power_w, "power_w")
        self._reject_reallocation(domain, power_w)
        if self.allocated_w() + power_w > self.total_w + 1e-9:
            raise ConstraintViolation(
                "power budget", self.allocated_w() + power_w, self.total_w
            )
        self.allocations[domain] = power_w

    def allocate_remainder(self, domain: str) -> float:
        """Give *domain* whatever budget is left and return that amount."""
        remainder = self.remaining_w()
        self._reject_reallocation(domain, remainder)
        self.allocations[domain] = remainder
        return remainder

    def _reject_reallocation(self, domain: str, requested_w: float) -> None:
        # Re-allocating a domain would silently drop its earlier reservation
        # from the accounting, so it is treated as a hard budget violation
        # rather than a configuration mistake the caller might swallow.
        if domain in self.allocations:
            raise ConstraintViolation(
                f"power budget domain {domain!r} re-allocation",
                requested_w,
                self.allocations[domain],
            )

    # -- queries -------------------------------------------------------------------

    def allocated_w(self) -> float:
        """Total power already reserved."""
        return sum(self.allocations.values())

    def remaining_w(self) -> float:
        """Budget not yet reserved (never negative)."""
        return max(0.0, self.total_w - self.allocated_w())

    def allocation_for(self, domain: str) -> float:
        """Budget reserved for *domain* (zero if none)."""
        return self.allocations.get(domain, 0.0)

    def domains(self) -> List[str]:
        """Domains that currently hold an allocation."""
        return list(self.allocations)

    def utilisation(self) -> float:
        """Fraction of the total budget that has been reserved."""
        return self.allocated_w() / self.total_w


# -- turbo power limits ----------------------------------------------------------------


@dataclass(frozen=True)
class TurboLimits:
    """The PL1/PL2 power-limit pair of the turbo algorithm (Section 2.1).

    Parameters
    ----------
    pl1_w:
        Sustained power limit; equals the TDP the cooling solution is sized
        for, and is what the EWMA of package power must stay under.
    pl2_w:
        Instantaneous (burst) power limit the package may draw while the
        EWMA has headroom.
    tau_s:
        Time constant of the EWMA accounting window: roughly how long a
        PL2 burst may last before the average reaches PL1.
    """

    pl1_w: float
    pl2_w: float
    tau_s: float = 10.0

    def __post_init__(self) -> None:
        ensure_positive(self.pl1_w, "pl1_w")
        ensure_positive(self.pl2_w, "pl2_w")
        ensure_positive(self.tau_s, "tau_s")
        if self.pl2_w < self.pl1_w:
            raise ConfigurationError("pl2_w must be >= pl1_w")

    @classmethod
    def from_tdp(
        cls, tdp_w: float, pl2_ratio: float = 1.25, tau_s: float = 10.0
    ) -> "TurboLimits":
        """The conventional client configuration: PL1 = TDP, PL2 = ratio x TDP."""
        ensure_positive(tdp_w, "tdp_w")
        if pl2_ratio < 1.0:
            raise ConfigurationError("pl2_ratio must be >= 1.0")
        return cls(pl1_w=tdp_w, pl2_w=tdp_w * pl2_ratio, tau_s=tau_s)


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


class BatchedEwmaMeter:
    """Vectorized :class:`EwmaPowerMeter` over a batch of lockstep runs.

    Each run keeps its own time step and averaging window, so the per-run
    retention factor is a constant of the run; it is precomputed with the
    same ``math.exp(-dt / tau)`` expression the scalar meter evaluates every
    step (and ``1.0 - keep`` with it), which keeps a batched trajectory
    bit-identical to stepping each run through its own
    :class:`EwmaPowerMeter`.  The averages belong to the caller (the
    lockstep loop keeps them in its trace rows): :meth:`update` writes the
    next ones into the caller's *out* row.

    Parameters
    ----------
    tau_s:
        Per-run averaging-window time constants.
    time_step_s:
        Per-run (constant) simulation steps.
    """

    def __init__(self, tau_s: Sequence[float], time_step_s: Sequence[float]) -> None:
        taus = np.asarray(tau_s, dtype=float)
        steps = np.asarray(time_step_s, dtype=float)
        if taus.shape != steps.shape:
            raise ConfigurationError("batched EWMA inputs must share one shape")
        if (taus <= 0).any() or (steps <= 0).any():
            raise ConfigurationError("tau_s and time_step_s must be positive")
        self._keep = np.array(
            [math.exp(-dt / tau) for dt, tau in zip(steps.tolist(), taus.tolist())],
            dtype=float,
        )
        self._blend = 1.0 - self._keep
        self._zero = np.zeros_like(self._keep)

    def update(
        self, average_w: np.ndarray, power_w: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """The averages after one step of per-run constant *power_w*, in *out*."""
        np.multiply(average_w, self._keep, out=out)
        return np.add(out, power_w * self._blend, out=out)

    def max_power_keeping_average_w(
        self, average_w: np.ndarray, limit_w: np.ndarray
    ) -> np.ndarray:
        """Per-run largest next-step power keeping the average <= *limit_w*."""
        bound = (limit_w - average_w * self._keep) / self._blend
        return np.maximum(self._zero, bound)
