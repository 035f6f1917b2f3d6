"""DarkGates: the paper's contribution, packaged as the library's core API.

The rest of the library provides substrates (PDN, power, SoC, firmware,
workloads, simulation); this package assembles them into the systems the
paper evaluates and exposes the comparison API a user actually wants:

* :class:`SystemSpec` — a declarative, frozen description of one system
  (SKU, segment, TDP, power-delivery mode, deepest package C-state,
  guardband options) with ``.build()``, ``.variant()``, and a registry of
  the named configurations the paper evaluates (``get_spec("darkgates")``,
  ``get_spec("baseline")``, ``get_spec("darkgates+c7")``, and the Broadwell
  motivation configs).
* :class:`SystemComparison` — runs the same workload on the DarkGates and
  baseline systems and reports the improvement/degradation numbers of
  Figs. 7-10.
* :mod:`repro.core.overhead` — the implementation-cost accounting of
  Section 5.
"""

from repro.core.darkgates import SystemComparison
from repro.core.overhead import ImplementationOverheads, darkgates_overheads
from repro.core.spec import (
    SKU_BUILDERS,
    SystemSpec,
    build_engine,
    get_spec,
    register_spec,
    resolve_spec,
    spec_names,
)

__all__ = [
    "SystemComparison",
    "SystemSpec",
    "SKU_BUILDERS",
    "build_engine",
    "get_spec",
    "register_spec",
    "resolve_spec",
    "spec_names",
    "ImplementationOverheads",
    "darkgates_overheads",
]
