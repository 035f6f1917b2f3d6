"""Unit tests for repro.common: units, grids, validation, errors."""

from __future__ import annotations

import math

import pytest

from repro.common.errors import (
    ConfigurationError,
    ConstraintViolation,
    ReproError,
    SimulationError,
)
from repro.common.grid import FrequencyGrid
from repro.common.units import GHZ, MHZ
from repro.common.validation import ensure_in_range, ensure_non_negative, ensure_positive


# -- errors ---------------------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    for exc_type in (ConfigurationError, ConstraintViolation, SimulationError):
        assert issubclass(exc_type, ReproError)


def test_constraint_violation_carries_context():
    error = ConstraintViolation("TDP", requested=100.0, allowed=91.0)
    assert error.limit == "TDP"
    assert error.requested == pytest.approx(100.0)
    assert error.allowed == pytest.approx(91.0)
    assert "TDP" in str(error)


# -- validation -----------------------------------------------------------------------


def test_ensure_positive_accepts_positive():
    assert ensure_positive(1.5, "x") == 1.5


def test_ensure_positive_rejects_zero():
    with pytest.raises(ConfigurationError):
        ensure_positive(0.0, "x")


def test_ensure_positive_rejects_negative():
    with pytest.raises(ConfigurationError):
        ensure_positive(-1.0, "x")


def test_ensure_positive_rejects_nan():
    with pytest.raises(ConfigurationError):
        ensure_positive(float("nan"), "x")


def test_ensure_positive_rejects_bool():
    with pytest.raises(ConfigurationError):
        ensure_positive(True, "x")


def test_ensure_non_negative_accepts_zero():
    assert ensure_non_negative(0.0, "x") == 0.0


def test_ensure_non_negative_rejects_negative():
    with pytest.raises(ConfigurationError):
        ensure_non_negative(-0.001, "x")


def test_ensure_in_range_accepts_bounds():
    assert ensure_in_range(0.0, 0.0, 1.0, "x") == 0.0
    assert ensure_in_range(1.0, 0.0, 1.0, "x") == 1.0


def test_ensure_in_range_rejects_outside():
    with pytest.raises(ConfigurationError):
        ensure_in_range(1.5, 0.0, 1.0, "x")


def test_validation_error_mentions_parameter_name():
    with pytest.raises(ConfigurationError, match="my_parameter"):
        ensure_positive(-1.0, "my_parameter")


# -- frequency grid ---------------------------------------------------------------------


def _skylake_grid() -> FrequencyGrid:
    return FrequencyGrid(min_hz=800 * MHZ, max_hz=4.2 * GHZ, step_hz=100 * MHZ)


def test_grid_length():
    grid = _skylake_grid()
    assert len(grid) == 35  # 0.8 to 4.2 GHz inclusive in 100 MHz steps


def test_grid_points_are_sorted_and_bounded():
    grid = _skylake_grid()
    points = grid.points()
    assert points[0] == pytest.approx(800 * MHZ)
    assert points[-1] == pytest.approx(4.2 * GHZ)
    assert points == sorted(points)


def test_grid_floor_quantises_down():
    grid = _skylake_grid()
    assert grid.floor(3.456e9) == pytest.approx(3.4e9)


def test_grid_floor_clamps_low():
    grid = _skylake_grid()
    assert grid.floor(0.1e9) == pytest.approx(800 * MHZ)


def test_grid_floor_clamps_high():
    grid = _skylake_grid()
    assert grid.floor(9.9e9) == pytest.approx(4.2e9)


def test_grid_ceil_quantises_up():
    grid = _skylake_grid()
    assert grid.ceil(3.401e9) == pytest.approx(3.5e9)


def test_grid_ceil_of_exact_point_is_identity():
    grid = _skylake_grid()
    assert grid.ceil(3.4e9) == pytest.approx(3.4e9)


def test_grid_contains_grid_point():
    grid = _skylake_grid()
    assert grid.contains(2.5e9)
    assert not grid.contains(2.55e9)
    assert not grid.contains(10e9)


def test_grid_step_down_and_up():
    grid = _skylake_grid()
    assert grid.step_down(2.5e9) == pytest.approx(2.4e9)
    assert grid.step_up(2.5e9) == pytest.approx(2.6e9)
    assert grid.step_down(800 * MHZ) == pytest.approx(800 * MHZ)
    assert grid.step_up(4.2e9) == pytest.approx(4.2e9)


def test_grid_descending_is_reverse_of_points():
    grid = _skylake_grid()
    assert grid.descending() == list(reversed(grid.points()))


def test_grid_clamp():
    grid = _skylake_grid()
    assert grid.clamp(0.0) == pytest.approx(800 * MHZ)
    assert grid.clamp(5e9) == pytest.approx(4.2e9)
    assert grid.clamp(2.345e9) == pytest.approx(2.345e9)


def test_grid_rejects_inverted_bounds():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(min_hz=2e9, max_hz=1e9)


def test_grid_rejects_non_positive_step():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(min_hz=1e9, max_hz=2e9, step_hz=0.0)


def test_grid_floor_is_idempotent():
    grid = _skylake_grid()
    for value in (0.93e9, 1.77e9, 3.99e9):
        floored = grid.floor(value)
        assert grid.floor(floored) == pytest.approx(floored)
        assert math.isclose((floored - grid.min_hz) % grid.step_hz, 0.0, abs_tol=1.0) or math.isclose(
            (floored - grid.min_hz) % grid.step_hz, grid.step_hz, abs_tol=1.0
        )
