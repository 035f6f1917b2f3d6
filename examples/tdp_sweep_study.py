"""TDP sweep study: how much DarkGates helps across desktop cTDP levels.

Sweeps the 35 W - 91 W configurable-TDP range of the evaluated desktop with
one declarative :class:`Study` grid — DarkGates and baseline specs x four
TDP levels x SPEC CPU2006 in base and rate mode, fanned out over two
worker processes (``max_workers=2``) — and reports, per level: the
achieved single-core and all-core frequencies of both systems, which limit
(Vmax or TDP) stopped each, and the resulting average SPEC gain in each
mode — the data behind the paper's Fig. 8.

Run with::

    python examples/tdp_sweep_study.py
"""

from __future__ import annotations

from repro import Study, get_spec
from repro.analysis.reporting import format_percent, format_table
from repro.pmu.dvfs import CpuDemand
from repro.soc.skus import SKYLAKE_TDP_LEVELS_W
from repro.workloads.spec import spec_cpu2006_base_suite, spec_cpu2006_rate_suite


def main() -> None:
    darkgates = get_spec("darkgates")
    baseline = get_spec("baseline")
    suites = {
        "base": spec_cpu2006_base_suite(),
        "rate": spec_cpu2006_rate_suite(4),
    }
    study = Study.over_tdp_levels(
        (darkgates, baseline),
        SKYLAKE_TDP_LEVELS_W,
        suites,
        max_workers=2,
        name="tdp-sweep",
    )
    grid = study.run()

    frequency_rows = []
    gain_rows = []
    for tdp in SKYLAKE_TDP_LEVELS_W:
        dark_spec = darkgates.variant(tdp_w=tdp)
        base_spec = baseline.variant(tdp_w=tdp)
        base_pcode = base_spec.build()
        dark_pcode = dark_spec.build()

        single = CpuDemand(active_cores=1, activity=0.65)
        all_cores = CpuDemand(active_cores=4, activity=0.65)
        base_point = base_pcode.resolve_cpu_operating_point(single)
        dark_point = dark_pcode.resolve_cpu_operating_point(single)
        base_rate_point = base_pcode.resolve_cpu_operating_point(all_cores)
        dark_rate_point = dark_pcode.resolve_cpu_operating_point(all_cores)
        frequency_rows.append(
            (
                f"{tdp:.0f} W",
                f"{base_point.frequency_ghz:.1f} -> {dark_point.frequency_ghz:.1f} GHz",
                base_point.limiting_factor.value,
                f"{base_rate_point.frequency_ghz:.1f} -> {dark_rate_point.frequency_ghz:.1f} GHz",
                base_rate_point.limiting_factor.value,
            )
        )

        averages = {}
        for mode, suite in suites.items():
            gains = [
                grid.get(dark_spec, w, suite=mode).improvement_over(
                    grid.get(base_spec, w, suite=mode)
                )
                for w in suite
            ]
            averages[mode] = sum(gains) / len(gains)
        gain_rows.append(
            (
                f"{tdp:.0f} W",
                format_percent(averages["base"]),
                format_percent(averages["rate"]),
            )
        )

    print(
        format_table(
            ["TDP", "1-core freq (base -> DG)", "1-core limit", "4-core freq (base -> DG)", "4-core limit"],
            frequency_rows,
            title="Achieved frequencies across the cTDP range",
        )
    )
    print()
    print(
        format_table(
            ["TDP", "SPEC base gain", "SPEC rate gain"],
            gain_rows,
            title="Average SPEC CPU2006 improvement (paper Fig. 8)",
        )
    )
    print()
    print(f"({study.tasks_executed} engine runs on 2 worker processes)")


if __name__ == "__main__":
    main()
