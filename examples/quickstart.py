"""Quickstart: compare a DarkGates desktop against the gated baseline.

Declares the two systems the paper evaluates as named specs
(``get_spec("darkgates")`` — Skylake-S with power-gates bypassed — and
``get_spec("baseline")`` — Skylake-H with power-gates enabled), sweeps a
handful of SPEC CPU2006 benchmarks over both with a :class:`Study`, and
prints the per-benchmark and average performance improvement — the headline
result of the paper.

Migration note (2.0 removed the 1.x factory functions):

* ``darkgates_system(tdp)``  ->  ``get_spec("darkgates", tdp_w=tdp).build()``
* ``baseline_system(tdp)``   ->  ``get_spec("baseline", tdp_w=tdp).build()``
* ``darkgates_c7_limited_system(tdp)``  ->  ``get_spec("darkgates+c7", tdp_w=tdp).build()``
* hand-rolled sweep loops    ->  ``Study(specs, workloads).run()``

New in 1.2: transient droop scenarios are a first-class workload class —
``engine.run(TransientScenario.from_trace(core_wake_trace()))`` simulates a
di/dt event on the system's PDN with the vectorized droop solver, and
``Study.over_transients(specs, traces)`` sweeps PDN configuration x trace x
time step (see ``examples/transient_droop_study.py``).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Study, get_spec, spec_cpu2006_base_suite
from repro.analysis.reporting import format_percent, format_table


def main() -> None:
    darkgates = get_spec("darkgates")
    baseline = get_spec("baseline")

    print("Configurations under comparison")
    for spec in (darkgates, baseline):
        print(f"  {spec.label:22s} {spec.build().describe()}")
    print()

    suite = spec_cpu2006_base_suite()
    grid = Study((darkgates, baseline), suite, name="quickstart").run()

    rows = []
    improvements = []
    for workload in suite:
        after = grid.get(darkgates, workload)
        before = grid.get(baseline, workload)
        improvements.append(after.improvement_over(before))
        rows.append(
            (
                workload.name,
                f"{before.frequency_hz / 1e9:.1f} GHz",
                f"{after.frequency_hz / 1e9:.1f} GHz",
                format_percent(improvements[-1]),
            )
        )

    print(
        format_table(
            ["benchmark", "baseline freq", "DarkGates freq", "improvement"],
            rows,
            title="SPEC CPU2006 (base) at 91 W TDP",
        )
    )
    average = sum(improvements) / len(improvements)
    print()
    print(f"Average improvement: {format_percent(average)} "
          f"(paper reports 4.6% on real silicon)")


if __name__ == "__main__":
    main()
