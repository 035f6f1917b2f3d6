"""Seeded request-arrival processes and their overlay.

An :class:`ArrivalProcess` declares *how load arrives* over a time horizon:
a Poisson stream, a diurnally-modulated stream, a self-similar ON/OFF
(bursty) source, or a deterministic duty cycle.  Sampling a process yields
the per-slot **offered load** — a non-negative utilisation-like series on a
fixed slot grid — which :mod:`repro.fleet.profiles` quantises into
:class:`~repro.workloads.dynamics.DynamicScenario` phase timelines.

Determinism follows the block-seeded discipline of
:class:`~repro.variation.sampler.DiePopulationSampler`: every draw comes
from ``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=key))``
where *key* is the node's **path** in the composition tree (prefixed by the
ensemble member index in :mod:`repro.fleet.profiles`).  A leaf's randomness
therefore depends only on ``(seed, path)`` — never on sibling processes,
ensemble size, or draw order.  Processes compose with ``a.overlay(b)``,
which flattens into one :class:`OverlayArrivals` whose sample is the padded
**sum** of its children's samples.

Every spec is a frozen dataclass with canonicalizable fields, so arrival
processes hash into run-store fingerprints like any other descriptor
(they are RPR004-checked via the ``fingerprint-roots`` lint contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import ensure_in_range, ensure_positive

#: Path key type: the spawn-key tuple addressing one node's generator.
SeedKey = Tuple[int, ...]


def spawned_rng(seed: int, key: SeedKey) -> np.random.Generator:
    """The deterministic generator of tree path *key* under *seed*.

    Mirrors the sampler's block discipline
    (``SeedSequence(entropy=seed, spawn_key=(block,))``): the stream depends
    only on ``(seed, key)``, so any node of any composition draws the same
    numbers in any process, on any platform.
    """
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.default_rng(sequence)


def slot_count(duration_s: float, slot_s: float) -> int:
    """Slots covering *duration_s* at resolution *slot_s* (at least one)."""
    ensure_positive(slot_s, "slot_s")
    return max(1, round(duration_s / slot_s))


class ArrivalProcess:
    """Base of every arrival-process spec: sampling plus ``overlay``.

    Concrete processes are frozen dataclasses implementing
    :attr:`duration_s` and :meth:`_sample`; this base contributes
    :meth:`sample_load` (the seeded public entry point) and
    :meth:`overlay`.
    """

    # -- the sampling contract ---------------------------------------------------------
    #
    # Every concrete process exposes ``duration_s`` (leaves as a dataclass
    # field, the overlay as a derived property) and implements ``_sample``.
    # The base deliberately does NOT declare a ``duration_s`` property: a
    # property object on the base would read as a field default to the
    # dataclass machinery of the leaves.

    duration_s: float

    def _sample(
        self, slot_s: float, seed: int, key: SeedKey
    ) -> np.ndarray:
        """Per-slot offered load of this node at tree path *key*."""
        raise NotImplementedError

    def sample_load(
        self, slot_s: float, seed: int, key: SeedKey = ()
    ) -> np.ndarray:
        """Draw the per-slot offered-load series of this process.

        The result has :func:`slot_count` ``(duration_s, slot_s)`` entries,
        every entry ``>= 0``.  Fixing ``(seed, key)`` fixes the series
        bit-for-bit across processes and platforms.
        """
        loads = self._sample(slot_s, int(seed), tuple(key))
        loads.flags.writeable = False
        return loads

    # -- composition -------------------------------------------------------------------

    def overlay(self, other: "ArrivalProcess") -> "OverlayArrivals":
        """Sum of this process and *other* (shorter child zero-padded)."""
        return OverlayArrivals(children=_stack(self) + _stack(other))


def _stack(process: ArrivalProcess) -> Tuple[ArrivalProcess, ...]:
    if isinstance(process, OverlayArrivals):
        return process.children
    return (process,)


def _check_children(children: Tuple[ArrivalProcess, ...], what: str) -> None:
    if not children:
        raise ConfigurationError(f"{what} needs at least one child process")
    for child in children:
        if not isinstance(child, ArrivalProcess):
            raise ConfigurationError(
                f"{what} children must be arrival processes, got "
                f"{type(child).__name__}"
            )


# -- leaf processes --------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless request arrivals at a constant mean rate.

    Parameters
    ----------
    duration_s:
        Time horizon.
    rate_hz:
        Mean request arrival rate.
    request_load:
        Offered load contributed by each request landing in a slot (the
        per-request service demand as a fraction of one core-slot).
    """

    duration_s: float
    rate_hz: float
    request_load: float = 0.25

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        if self.rate_hz < 0.0:
            raise ConfigurationError("rate_hz must be >= 0")
        ensure_positive(self.request_load, "request_load")

    def _sample(self, slot_s: float, seed: int, key: SeedKey) -> np.ndarray:
        n = slot_count(self.duration_s, slot_s)
        rng = spawned_rng(seed, key)
        counts = rng.poisson(self.rate_hz * slot_s, size=n)
        return counts.astype(float) * self.request_load


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals whose rate follows a day/night (sinusoidal) cycle.

    The instantaneous rate at slot midpoint *t* is
    ``rate_hz * max(0, 1 + amplitude * sin(2 pi (t / period_s + phase)))``.

    Parameters
    ----------
    duration_s:
        Time horizon.
    rate_hz:
        Mean (mid-cycle) request rate.
    amplitude:
        Peak-to-mean modulation depth, ``0..1``.
    period_s:
        Length of one diurnal cycle.
    phase:
        Cycle phase offset in turns (0..1).
    request_load:
        Offered load contributed per request.
    """

    duration_s: float
    rate_hz: float
    amplitude: float = 0.8
    period_s: float = 86400.0
    phase: float = 0.0
    request_load: float = 0.25

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        if self.rate_hz < 0.0:
            raise ConfigurationError("rate_hz must be >= 0")
        ensure_in_range(self.amplitude, 0.0, 1.0, "amplitude")
        ensure_positive(self.period_s, "period_s")
        ensure_in_range(self.phase, 0.0, 1.0, "phase")
        ensure_positive(self.request_load, "request_load")

    def _sample(self, slot_s: float, seed: int, key: SeedKey) -> np.ndarray:
        n = slot_count(self.duration_s, slot_s)
        midpoints = (np.arange(n) + 0.5) * slot_s
        modulation = 1.0 + self.amplitude * np.sin(
            2.0 * math.pi * (midpoints / self.period_s + self.phase)
        )
        rates = self.rate_hz * np.maximum(modulation, 0.0)
        rng = spawned_rng(seed, key)
        counts = rng.poisson(rates * slot_s)
        return counts.astype(float) * self.request_load


@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """A self-similar ON/OFF (bursty) source with heavy-tailed sojourns.

    ON and OFF dwell times are Pareto-distributed with tail index
    *alpha* — the classical construction whose superposition produces
    self-similar (long-range-dependent) traffic.  During ON periods the
    source offers *on_load*; OFF periods offer nothing.  Partial slot
    overlaps contribute fractionally, so the sampled series is exact for
    any slot resolution.

    Parameters
    ----------
    duration_s:
        Time horizon.
    mean_on_s / mean_off_s:
        Mean ON / OFF dwell times.
    alpha:
        Pareto tail index (``1 < alpha <= 2`` gives the self-similar
        heavy-tail regime).
    on_load:
        Offered load while ON.
    """

    duration_s: float
    mean_on_s: float = 4.0
    mean_off_s: float = 8.0
    alpha: float = 1.5
    on_load: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        ensure_positive(self.mean_on_s, "mean_on_s")
        ensure_positive(self.mean_off_s, "mean_off_s")
        if not 1.0 < self.alpha <= 2.0:
            raise ConfigurationError(
                "alpha must lie in (1, 2] for a finite-mean heavy tail"
            )
        ensure_positive(self.on_load, "on_load")

    def _pareto(self, rng: np.random.Generator, mean_s: float) -> float:
        # Classical Pareto with tail alpha and mean `mean_s`:
        # scale m = mean * (alpha - 1) / alpha, sample = m * (1 + Lomax).
        scale = mean_s * (self.alpha - 1.0) / self.alpha
        return scale * (1.0 + float(rng.pareto(self.alpha)))

    def _sample(self, slot_s: float, seed: int, key: SeedKey) -> np.ndarray:
        n = slot_count(self.duration_s, slot_s)
        horizon = n * slot_s
        rng = spawned_rng(seed, key)
        loads = np.zeros(n)
        time_s = 0.0
        # Alternate ON/OFF dwell periods until the horizon is covered,
        # spreading each ON interval over the slots it overlaps.
        while time_s < horizon:
            on_s = self._pareto(rng, self.mean_on_s)
            on_start, on_end = time_s, min(time_s + on_s, horizon)
            first = int(on_start / slot_s)
            last = min(int(math.ceil(on_end / slot_s)), n)
            for slot in range(first, last):
                lo = max(on_start, slot * slot_s)
                hi = min(on_end, (slot + 1) * slot_s)
                if hi > lo:
                    loads[slot] += self.on_load * (hi - lo) / slot_s
            time_s += on_s + self._pareto(rng, self.mean_off_s)
        return loads


@dataclass(frozen=True)
class DutyCycleArrivals(ArrivalProcess):
    """A deterministic periodic duty cycle (no randomness drawn at all).

    Each period opens with ``on_fraction`` of ON time at *load*, then
    rests.  Partial slot overlaps contribute fractionally.

    Parameters
    ----------
    duration_s:
        Time horizon.
    period_s:
        Cycle period.
    on_fraction:
        Fraction of each period spent ON, ``0..1``.
    load:
        Offered load while ON.
    """

    duration_s: float
    period_s: float = 10.0
    on_fraction: float = 0.5
    load: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        ensure_positive(self.period_s, "period_s")
        ensure_in_range(self.on_fraction, 0.0, 1.0, "on_fraction")
        if self.load < 0.0:
            raise ConfigurationError("load must be >= 0")

    def _on_overlap_s(self, t0: float, t1: float) -> float:
        """ON time inside ``[t0, t1)`` of the periodic ON/OFF pattern."""
        on_s = self.on_fraction * self.period_s
        total = 0.0
        period = int(t0 / self.period_s)
        while period * self.period_s < t1:
            on_start = period * self.period_s
            lo = max(t0, on_start)
            hi = min(t1, on_start + on_s)
            if hi > lo:
                total += hi - lo
            period += 1
        return total

    def _sample(self, slot_s: float, seed: int, key: SeedKey) -> np.ndarray:
        n = slot_count(self.duration_s, slot_s)
        loads = np.empty(n)
        for slot in range(n):
            overlap = self._on_overlap_s(slot * slot_s, (slot + 1) * slot_s)
            loads[slot] = self.load * overlap / slot_s
        return loads


# -- composition -----------------------------------------------------------------------


@dataclass(frozen=True)
class OverlayArrivals(ArrivalProcess):
    """Children summed slot-wise (the ``overlay`` combinator).

    Shorter children are zero-padded to the longest child's slot grid;
    child *i* draws from tree path ``key + (i,)``.
    """

    children: Tuple[ArrivalProcess, ...]

    def __post_init__(self) -> None:
        _check_children(self.children, "OverlayArrivals")
        if any(isinstance(c, OverlayArrivals) for c in self.children):
            raise ConfigurationError(
                "OverlayArrivals children must be flattened; build "
                "overlays with .overlay()"
            )

    @property
    def duration_s(self) -> float:
        return max(child.duration_s for child in self.children)

    def _sample(self, slot_s: float, seed: int, key: SeedKey) -> np.ndarray:
        n = slot_count(self.duration_s, slot_s)
        total = np.zeros(n)
        for index, child in enumerate(self.children):
            sample = child._sample(slot_s, seed, key + (index,))
            total[: len(sample)] += sample[:n]
        return total
