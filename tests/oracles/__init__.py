"""Reference implementations the fast paths are checked against.

Each oracle is the slow, obviously-correct path a fast path replaced:

* :mod:`oracles.dynamics` — the per-run closed-loop stepper;
* :mod:`oracles.turbo` — the scalar EWMA meter and PL1/PL2 turbo budget
  the per-run stepper accounts power with;
* :mod:`oracles.dvfs` — the static DVFS grid walk and scalar per-step bin
  selection;
* :mod:`oracles.population` — per-die population stepping;
* :mod:`oracles.streaming` — per-row quantiles of the streaming
  accumulators;
* :mod:`oracles.droop` — the per-stage RK4 droop integrator;
* :mod:`oracles.study` — per-cell study execution;
* :mod:`oracles.hashing` — one render of the whole run-identity document.

The equivalence tests and the speed harnesses in ``benchmarks/`` import
them from here; the library itself never does.
"""
