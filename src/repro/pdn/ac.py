"""Small-signal AC impedance analysis of a PDN netlist.

This module produces the impedance-versus-frequency profiles shown in the
paper's Fig. 4.  The analysis injects a 1 A phasor current at an observation
node (the die-side supply node of a CPU core), solves the complex nodal
equations at every frequency of a log-spaced sweep, and reports the magnitude
of the resulting node voltage — which, for a 1 A injection, *is* the
impedance seen by the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_positive
from repro.pdn.netlist import Netlist


@dataclass(frozen=True)
class ImpedancePoint:
    """Impedance of the network at a single frequency."""

    frequency_hz: float
    impedance_ohm: complex

    @property
    def magnitude_ohm(self) -> float:
        """Magnitude of the impedance in ohms."""
        return abs(self.impedance_ohm)


@dataclass
class ImpedanceProfile:
    """An impedance-versus-frequency profile (one curve of Fig. 4)."""

    label: str
    points: List[ImpedancePoint]

    def frequencies_hz(self) -> np.ndarray:
        """Sweep frequencies as a numpy array."""
        return np.array([p.frequency_hz for p in self.points])

    def magnitudes_ohm(self) -> np.ndarray:
        """Impedance magnitudes as a numpy array."""
        return np.array([p.magnitude_ohm for p in self.points])

    def peak(self) -> ImpedancePoint:
        """The single highest-impedance point of the profile."""
        return max(self.points, key=lambda p: p.magnitude_ohm)

    def peak_magnitude_ohm(self) -> float:
        """Magnitude of the worst-case impedance peak."""
        return self.peak().magnitude_ohm

    def impedance_at(self, frequency_hz: float) -> float:
        """Impedance magnitude at the sweep point closest to *frequency_hz*."""
        closest = min(self.points, key=lambda p: abs(p.frequency_hz - frequency_hz))
        return closest.magnitude_ohm

    def ratio_to(self, other: "ImpedanceProfile") -> np.ndarray:
        """Pointwise magnitude ratio of this profile to *other*.

        Both profiles must have been produced over the same frequency sweep.
        The paper's headline electrical claim is that the gated profile is
        roughly 2x the bypassed profile across the sweep.
        """
        if len(self.points) != len(other.points):
            raise ConfigurationError("profiles were swept over different grids")
        return self.magnitudes_ohm() / other.magnitudes_ohm()

    def mean_ratio_to(self, other: "ImpedanceProfile") -> float:
        """Geometric-mean magnitude ratio of this profile to *other*."""
        ratios = self.ratio_to(other)
        return float(np.exp(np.mean(np.log(ratios))))


class ACAnalysis:
    """Impedance sweep driver for a PDN netlist.

    Parameters
    ----------
    netlist:
        The PDN to analyse.
    observation_node:
        Node at which the load current is injected and the impedance
        observed (the die-side supply node of a CPU core).
    """

    def __init__(self, netlist: Netlist, observation_node: str) -> None:
        if not netlist.has_node(observation_node):
            raise ConfigurationError(
                f"observation node {observation_node!r} is not in the netlist"
            )
        self._netlist = netlist
        self._observation_node = observation_node

    @property
    def observation_node(self) -> str:
        """Node at which impedance is observed."""
        return self._observation_node

    def impedance_at(self, frequency_hz: float) -> complex:
        """Complex impedance seen from the observation node at one frequency."""
        ensure_positive(frequency_hz, "frequency_hz")
        omega = 2.0 * math.pi * frequency_hz
        voltages = self._netlist.solve_node_voltages(
            omega, {self._observation_node: 1.0 + 0.0j}
        )
        return voltages[self._observation_node]

    def sweep(
        self,
        start_hz: float = 1e5,
        stop_hz: float = 2e8,
        points_per_decade: int = 40,
        label: str = "pdn",
        frequencies_hz: Optional[Sequence[float]] = None,
    ) -> ImpedanceProfile:
        """Sweep impedance over a log-spaced frequency range.

        Parameters
        ----------
        start_hz, stop_hz:
            Sweep limits.  The defaults cover the 100 kHz – 200 MHz span of
            the paper's Fig. 4.
        points_per_decade:
            Sweep density.
        label:
            Name attached to the resulting profile (used in reports).
        frequencies_hz:
            Explicit sweep points; overrides the log-spaced range when given
            so that two configurations can be compared point by point.
        """
        if frequencies_hz is None:
            ensure_positive(start_hz, "start_hz")
            ensure_positive(stop_hz, "stop_hz")
            if stop_hz <= start_hz:
                raise ConfigurationError("stop_hz must be greater than start_hz")
            decades = math.log10(stop_hz / start_hz)
            count = max(2, int(round(decades * points_per_decade)) + 1)
            frequencies = np.logspace(
                math.log10(start_hz), math.log10(stop_hz), count
            )
        else:
            frequencies = np.asarray(list(frequencies_hz), dtype=float)
            if frequencies.size < 1:
                raise ConfigurationError("frequencies_hz must not be empty")
        points = [
            ImpedancePoint(frequency_hz=float(f), impedance_ohm=self.impedance_at(float(f)))
            for f in frequencies
        ]
        return ImpedanceProfile(label=label, points=points)
