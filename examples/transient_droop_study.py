"""Transient-droop study: sweep load traces over gated and bypassed PDNs.

Reproduces the paper's droop comparison (Section 2.4.2, Fig. 6) with the
vectorized transient subsystem: the four canonical di/dt events — a
power-gated core waking up, an AVX burst, a staggered multi-core wake, and
a composite wake-then-AVX trace — run over the DarkGates (bypassed) and
baseline (gated) systems through a :class:`~repro.analysis.study.Study`,
showing that the bypassed network droops roughly half as much for every
event.

The same grid also sweeps the integration step to show that the droop
solver (one RK4 propagator, evaluated for every step at once) has
converged: at steps that resolve the die-level resonance, results barely
move when the step changes.

Custom traces compose declaratively::

    from repro import TraceBuilder

    trace = (
        TraceBuilder(initial_current_a=2.0)
        .hold(100e-9)
        .ramp_to(25.0, 5e-9)      # core wakes over 5 ns
        .hold(1e-6)
        .build("my_wake")
    )

Run with::

    python examples/transient_droop_study.py
"""

from __future__ import annotations

from repro import Study, get_spec
from repro.analysis.reporting import format_percent, format_table
from repro.pdn.transients import (
    avx_burst_trace,
    core_wake_trace,
    multi_event_trace,
    staggered_wake_trace,
)


def main() -> None:
    darkgates = get_spec("darkgates")
    baseline = get_spec("baseline")
    traces = (
        core_wake_trace(),
        avx_burst_trace(),
        staggered_wake_trace(),
        multi_event_trace(),
    )

    study = Study.over_transients(
        (darkgates, baseline),
        traces,
        time_steps_s=(0.5e-9,),
        name="fig6_droop",
    )
    grid = study.run()

    rows = []
    for trace in traces:
        gated = grid.get(baseline, trace.name, suite="transients")
        bypassed = grid.get(darkgates, trace.name, suite="transients")
        rows.append(
            (
                trace.name,
                f"{trace.peak_current_a:.0f} A",
                f"{gated.worst_droop_v * 1e3:.1f} mV",
                f"{bypassed.worst_droop_v * 1e3:.1f} mV",
                format_percent(-bypassed.worsening_over(gated)),
            )
        )
    print(
        format_table(
            ["scenario", "peak load", "gated droop", "bypassed droop", "improvement"],
            rows,
            title="Worst-case transient droop, gated vs bypassed (Fig. 6)",
        )
    )
    print()

    # Step-size sensitivity of one scenario (the RK4 solver has converged
    # at steps that resolve the die resonance, so the droop barely moves).
    steps = (0.5e-9, 1e-9, 2e-9)
    sensitivity = Study.over_transients(
        (darkgates,), (core_wake_trace(),), time_steps_s=steps, name="steps"
    ).run()
    rows = []
    for step in steps:
        name = "core_wake" if step == 0.5e-9 else f"core_wake@{step * 1e9:g}ns"
        cell = sensitivity.get(darkgates, name, suite="transients")
        rows.append((f"{step * 1e9:g} ns", f"{cell.worst_droop_v * 1e3:.3f} mV"))
    print(
        format_table(
            ["time step", "worst droop"],
            rows,
            title="Core-wake droop vs integration step (DarkGates)",
        )
    )


if __name__ == "__main__":
    main()
