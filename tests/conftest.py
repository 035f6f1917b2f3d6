"""Shared fixtures.

The guardband model runs an AC sweep of the PDN the first time it is asked
for a guardband, so system-level objects are cached at session scope to keep
the suite fast.  Test modules that need a spec/processor/Pcode/V-F curve
should use the factory fixtures here instead of constructing their own —
the factories memoise per configuration, so identical systems are built
exactly once per session no matter how many tests touch them.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.spec import get_spec
from repro.pdn.guardband import GuardbandModel
from repro.pdn.ladder import PdnConfiguration
from repro.pdn.loadline import default_virus_table
from repro.pmu.dvfs import DvfsPolicy
from repro.pmu.fuses import FuseSet
from repro.pmu.pcode import Pcode
from repro.pmu.vf_curve import VfCurve
from repro.soc.skus import skylake_h_mobile, skylake_s_desktop


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "Regenerate the golden experiment snapshots under tests/golden/ "
            "instead of comparing against them."
        ),
    )


@pytest.fixture(scope="session")
def gated_pdn() -> PdnConfiguration:
    """The default (power-gates enabled) PDN configuration."""
    return PdnConfiguration()


@pytest.fixture(scope="session")
def bypassed_pdn(gated_pdn: PdnConfiguration) -> PdnConfiguration:
    """The bypassed (DarkGates) PDN configuration."""
    return gated_pdn.with_bypass()


@pytest.fixture(scope="session")
def darkgates_91w():
    """The DarkGates firmware configuration at 91 W."""
    return get_spec("darkgates", tdp_w=91.0).build()


@pytest.fixture(scope="session")
def baseline_91w():
    """The baseline firmware configuration at 91 W."""
    return get_spec("baseline", tdp_w=91.0).build()


# -- shared construction factories -----------------------------------------------------
#
# Raw (registry-free) system objects, as the PMU unit tests build them: no
# reliability margin, fuses straight from the FuseSet presets.  Memoised per
# TDP so repeated parametrisations share one instance.


@lru_cache(maxsize=None)
def _desktop_processor(tdp_w: float):
    return skylake_s_desktop(tdp_w)


@lru_cache(maxsize=None)
def _mobile_processor(tdp_w: float):
    return skylake_h_mobile(tdp_w)


@lru_cache(maxsize=None)
def _vf_curve(bypassed: bool) -> VfCurve:
    processor = _desktop_processor(91.0) if bypassed else _mobile_processor(91.0)
    return VfCurve(
        silicon=processor.die.vf_character,
        guardband_model=GuardbandModel(processor.package.pdn),
        virus_table=default_virus_table(processor.core_count),
        frequency_grid=processor.die.core_frequency_grid,
        vmax_v=processor.die.vmax_v,
    )


@lru_cache(maxsize=None)
def _darkgates_pcode(tdp_w: float) -> Pcode:
    return Pcode(_desktop_processor(tdp_w), FuseSet.darkgates_desktop())


@lru_cache(maxsize=None)
def _baseline_pcode(tdp_w: float) -> Pcode:
    return Pcode(_mobile_processor(tdp_w), FuseSet.legacy_desktop())


@lru_cache(maxsize=None)
def _dvfs_policy(tdp_w: float, bypassed: bool) -> DvfsPolicy:
    processor = (
        _desktop_processor(tdp_w) if bypassed else _mobile_processor(tdp_w)
    )
    return DvfsPolicy(processor, _vf_curve(bypassed), bypass_mode=bypassed)


@pytest.fixture(scope="session")
def desktop_processor():
    """Factory: the Skylake-S (bypassed) processor at a TDP level."""
    return _desktop_processor


@pytest.fixture(scope="session")
def mobile_processor():
    """Factory: the Skylake-H (gated) processor at a TDP level."""
    return _mobile_processor


@pytest.fixture(scope="session")
def vf_curve():
    """Factory: the guardbanded V/F curve of the gated or bypassed part."""
    return _vf_curve


@pytest.fixture(scope="session")
def darkgates_pcode():
    """Factory: a raw DarkGates Pcode (bypass fuses, no reliability margin)."""
    return _darkgates_pcode


@pytest.fixture(scope="session")
def baseline_pcode():
    """Factory: a raw baseline Pcode (gated fuses)."""
    return _baseline_pcode


@pytest.fixture(scope="session")
def dvfs_policy():
    """Factory: a DVFS policy for (tdp_w, bypassed)."""
    return _dvfs_policy
