"""Energy-efficiency scenarios: ENERGY STAR and Intel Ready Mode (RMT).

These scenarios reproduce the structure the paper describes in Sections 6
and 7.3:

* **RMT** — the platform sits in Ready Mode: ~99 % of the time idle in its
  deepest supported package C-state and ~1 % of the time awake servicing
  network traffic, with a small slice of shallow idle covering the
  entry/exit transitions.
* **ENERGY STAR** — the desktop computers specification weights four modes
  (off, sleep, long idle, short idle); the long/short idle modes reach the
  deepest package C-state with, for short idle, the display pipeline still
  drawing power.

The average-power limits attached to each scenario model the pass/fail
thresholds drawn as horizontal lines in Fig. 10: the DarkGates part limited
to package C7 misses them, while DarkGates with package C8 (and the
non-DarkGates baseline) meet them.
"""

from __future__ import annotations

from repro.workloads.descriptors import EnergyScenario, ResidencyPhase


def rmt_scenario() -> EnergyScenario:
    """The Intel Ready Mode Technology idle-platform scenario."""
    return EnergyScenario(
        name="RMT",
        phases=(
            ResidencyPhase(
                name="active_wake",
                fraction=0.01,
                mode="active",
                active_power_hint_w=5.0,
            ),
            ResidencyPhase(
                name="shallow_idle_transitions",
                fraction=0.02,
                mode="package_idle",
                package_cstate="C2",
            ),
            ResidencyPhase(
                name="deep_idle",
                fraction=0.97,
                mode="package_idle",
                package_cstate="deepest",
            ),
        ),
        average_power_limit_w=0.50,
    )


def energy_star_scenario() -> EnergyScenario:
    """The ENERGY STAR desktop-computer usage profile.

    Mode weightings follow the conventional desktop duty cycle of the
    ENERGY STAR computers specification (off 25 %, sleep 35 %, long idle
    10 %, short idle 30 %).  Short idle keeps the display pipeline alive,
    modelled as a fixed power hint added on top of the package idle power.
    """
    return EnergyScenario(
        name="ENERGY STAR",
        phases=(
            ResidencyPhase(name="off", fraction=0.25, mode="off", active_power_hint_w=0.15),
            ResidencyPhase(
                name="sleep", fraction=0.35, mode="sleep", active_power_hint_w=0.45
            ),
            ResidencyPhase(
                name="long_idle",
                fraction=0.10,
                mode="package_idle",
                package_cstate="deepest",
            ),
            ResidencyPhase(
                name="short_idle",
                fraction=0.30,
                mode="package_idle",
                package_cstate="deepest",
                active_power_hint_w=0.70,
            ),
        ),
        average_power_limit_w=0.65,
    )
