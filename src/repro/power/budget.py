"""Turbo power limits and their batched EWMA accounting.

The *time-dependent* budget behind the turbo behaviour of Section 2.1: the
PL1/PL2 power-limit pair and the exponentially weighted moving-average
(EWMA) accounting the firmware uses to decide how far above TDP a burst may
go and for how long.  The split of a budget between CPU cores and graphics
is the PBM firmware model's (:mod:`repro.pmu.pbm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive


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


class BatchedEwmaMeter:
    """EWMA accounting of package power over a batch of lockstep runs.

    Each run keeps its own time step and averaging window, so the per-run
    retention factor is a constant of the run; it is precomputed with the
    same ``math.exp(-dt / tau)`` expression the scalar meter evaluates every
    step (and ``1.0 - keep`` with it), which keeps a batched trajectory
    bit-identical to stepping each run through its own scalar
    ``EwmaPowerMeter`` (the oracle in ``tests/oracles/turbo.py``).  The
    averages belong to the caller (the lockstep loop keeps them in its
    trace rows): :meth:`update` writes the next ones into the caller's
    *out* row.

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
