"""Time-domain di/dt droop simulation.

When a core suddenly raises its current demand (for example when a
power-gated core wakes up, or an AVX burst begins), the supply voltage at
the die droops below its DC value until the decoupling capacitors and the
VR catch up.  The worst-case droop sets the transient ("droop") portion of
the voltage guardband (paper Section 2.4.2, "Voltage Droop Effect on Fmax").

The network is the three-stage R-L / C ladder produced by
:class:`~repro.pdn.ladder.SkylakePdnBuilder`.  State variables are the
series-branch currents and the capacitor voltages of each stage; the load is
an ideal current source at the last (die) node.  Because the ladder is a
linear time-invariant system, the simulator precomputes its state-space
matrices once and then integrates with one of several interchangeable
methods:

* ``"scan"`` — the classical RK4 update collapsed into a one-step linear
  propagator, diagonalised and evaluated for *all* time steps at once with
  a vectorized parallel prefix scan (no per-step Python loop).  Default.
* ``"exact"`` — exact discretization of the continuous system for loads
  that are (or are sampled as) piecewise-linear, using the matrix
  exponential; accurate at any step size that resolves the load.

When a propagator's eigenbasis is too ill-conditioned to diagonalise
reliably, either method applies it step by step as one matrix-vector
product per step instead (the "matvec" loop).  ``"scan"`` and its loop
agree to floating-point roundoff with the original per-stage Python RK4
(the regression oracle in ``tests/oracles/droop.py``); ``"exact"`` differs
from them only by the RK4 truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.validation import ensure_positive
from repro.pdn.ladder import LadderStage

#: Integration methods accepted by :class:`DroopSimulator`.
INTEGRATION_METHODS = ("scan", "exact")

#: Stride (in steps) at which the per-step loops re-check for divergence.
_DIVERGENCE_CHECK_STRIDE = 256

#: Condition-number ceiling above which the eigenbasis of the propagator is
#: considered too ill-conditioned for the scan and the matvec loop is used.
_MAX_EIGENBASIS_CONDITION = 1e8


@dataclass(frozen=True)
class DroopResult:
    """Outcome of a droop simulation.

    Attributes
    ----------
    time_s:
        Simulation time points.
    load_voltage_v:
        Voltage at the die (load) node over time.
    nominal_voltage_v:
        The unloaded rail voltage used for the run.
    final_dc_drop_v:
        Analytic asymptotic DC (IR) drop the network would settle to if the
        final load current were held forever (``sum(R) * (i_final -
        i_initial)``).  Supplied by the simulator; ``None`` for hand-built
        results.  Informational — ``settled_drop_v`` always reflects the
        simulated waveform, because on runs shorter than the slowest network
        time constant the asymptote has not been reached yet.
    """

    time_s: np.ndarray
    load_voltage_v: np.ndarray
    nominal_voltage_v: float
    final_dc_drop_v: Optional[float] = None

    @property
    def worst_droop_v(self) -> float:
        """Largest instantaneous drop below the pre-step settled voltage."""
        settled = self.load_voltage_v[0]
        return float(settled - self.load_voltage_v.min())

    @property
    def settled_drop_v(self) -> float:
        """DC (IR) drop after the transient has settled.

        Detects the settled tail of the waveform instead of averaging a
        fixed-size window that may still contain transient on short runs;
        when the run never settles, the final sample is used as the closest
        estimate.  Both choices keep the settled level at or above the
        waveform minimum, so ``transient_overshoot_v`` cannot go spuriously
        negative (and then be clamped) the way the fixed window could.
        """
        return self._detected_settled_drop_v()

    def _detected_settled_drop_v(self) -> float:
        voltages = self.load_voltage_v
        final = float(voltages[-1])
        span = float(voltages.max() - voltages.min())
        tolerance = max(1e-9, 0.02 * span)
        unsettled = np.nonzero(np.abs(voltages - final) > tolerance)[0]
        start = 0 if unsettled.size == 0 else int(unsettled[-1]) + 1
        tail = voltages[start:]
        if tail.size < 3:
            # Never settled within the run; the final sample is the closest
            # available estimate of the settled level.
            return float(voltages[0]) - final
        return float(voltages[0]) - float(tail.mean())

    @property
    def transient_overshoot_v(self) -> float:
        """Droop in excess of the final DC drop (the purely transient part)."""
        return max(0.0, self.worst_droop_v - max(0.0, self.settled_drop_v))

    def minimum_voltage_v(self) -> float:
        """Lowest instantaneous load voltage observed."""
        return float(self.load_voltage_v.min())


def _taylor_expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of a Taylor series.

    Adequate for the small (2 x stage count) matrices of the ladder; avoids
    a SciPy dependency.
    """
    norm = np.linalg.norm(matrix, ord=1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    scaled = matrix / (2.0**squarings)
    result = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for order in range(1, 20):
        term = term @ scaled / order
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


class DroopSimulator:
    """Fixed-step transient simulator for an R-L / C ladder.

    Parameters
    ----------
    stages:
        Ladder stages from source to load.  The source end is an ideal
        voltage source at ``nominal_voltage_v``.
    nominal_voltage_v:
        Unloaded rail voltage.
    method:
        Default integration method (one of :data:`INTEGRATION_METHODS`);
        individual simulate calls may override it.
    """

    def __init__(
        self,
        stages: Sequence[LadderStage],
        nominal_voltage_v: float = 1.0,
        method: str = "scan",
    ) -> None:
        if not stages:
            raise ConfigurationError("droop simulator needs at least one ladder stage")
        ensure_positive(nominal_voltage_v, "nominal_voltage_v")
        if method not in INTEGRATION_METHODS:
            raise ConfigurationError(
                f"unknown integration method {method!r}; "
                f"known: {list(INTEGRATION_METHODS)}"
            )
        self._stages = list(stages)
        self._nominal_voltage_v = nominal_voltage_v
        self._method = method
        self._series_resistance = np.array(
            [stage.series_resistance_ohm for stage in self._stages]
        )
        self._build_state_space()
        # Per-(time step) discretization caches: {h: (propagator, drive mats)}.
        self._rk4_cache: dict = {}
        self._exact_cache: dict = {}
        self._eig_cache: dict = {}

    @property
    def stages(self) -> List[LadderStage]:
        """The ladder stages this simulator integrates."""
        return list(self._stages)

    @property
    def nominal_voltage_v(self) -> float:
        """Unloaded rail voltage of the runs."""
        return self._nominal_voltage_v

    # -- state space -----------------------------------------------------------------

    def _build_state_space(self) -> None:
        """Precompute ``dx/dt = A x + b_source Vnom + b_load i(t)``.

        The state is ``x = [i_1..i_n, vc_1..vc_n]``.  The capacitor current
        of stage *k* is ``i_k - i_(k+1)`` (the load current after the last
        stage), its node voltage ``vc_k + esr_k * c_k``, and each series
        branch integrates the voltage across its R-L against the upstream
        node (the source for the first stage).
        """
        count = len(self._stages)
        state_size = 2 * count
        A = np.zeros((state_size, state_size))
        b_source = np.zeros(state_size)
        b_load = np.zeros(state_size)

        def node_voltage_row(index: int) -> Tuple[np.ndarray, float]:
            # Node voltage of stage *index* as a linear form over the state
            # plus a coefficient on the load current.
            row = np.zeros(state_size)
            esr = self._stages[index].shunt_esr_ohm
            row[count + index] = 1.0
            row[index] += esr
            load_coefficient = 0.0
            if index + 1 < count:
                row[index + 1] -= esr
            else:
                load_coefficient = -esr
            return row, load_coefficient

        for index, stage in enumerate(self._stages):
            row, load_coefficient = node_voltage_row(index)
            inductance = stage.series_inductance_h
            A[index] -= row / inductance
            b_load[index] -= load_coefficient / inductance
            A[index, index] -= stage.series_resistance_ohm / inductance
            if index == 0:
                b_source[index] += 1.0 / inductance
            else:
                upstream_row, upstream_load = node_voltage_row(index - 1)
                A[index] += upstream_row / inductance
                b_load[index] += upstream_load / inductance
            capacitance = stage.shunt_capacitance_f
            A[count + index, index] += 1.0 / capacitance
            if index + 1 < count:
                A[count + index, index + 1] -= 1.0 / capacitance
            else:
                b_load[count + index] -= 1.0 / capacitance

        self._A = A
        self._b_source = b_source
        self._b_load = b_load

    # -- public API ------------------------------------------------------------------

    def simulate_current_step(
        self,
        step_current_a: float,
        initial_current_a: float = 0.0,
        rise_time_s: float = 2e-9,
        duration_s: float = 2e-6,
        time_step_s: float = 0.5e-9,
        method: Optional[str] = None,
    ) -> DroopResult:
        """Simulate the response to a load-current step at the die node.

        Parameters
        ----------
        step_current_a:
            Final load current after the step.
        initial_current_a:
            Load current before the step (the network is settled at this
            current before the step is applied).
        rise_time_s:
            Linear ramp time of the current step; a few nanoseconds models
            the staggered power-gate wake-up or an instruction-mix change.
        duration_s:
            Simulated time after the step begins.
        time_step_s:
            Integration step.  Must resolve the fastest L/C time constant;
            the default of 0.5 ns is comfortable for die-level resonances of
            up to ~150 MHz.
        method:
            Integration method override for this run.
        """
        ensure_positive(duration_s, "duration_s")
        ensure_positive(time_step_s, "time_step_s")
        if step_current_a < 0 or initial_current_a < 0:
            raise ConfigurationError("load currents must be >= 0")
        if rise_time_s < 0:
            raise ConfigurationError("rise_time_s must be >= 0")
        rise = max(rise_time_s, 1e-15)

        def load_current(time_s: float) -> float:
            if time_s <= 0:
                return initial_current_a
            if time_s >= rise:
                return step_current_a
            fraction = time_s / rise
            return initial_current_a + fraction * (step_current_a - initial_current_a)

        def load_samples(times: np.ndarray) -> np.ndarray:
            return np.interp(
                times,
                [0.0, rise],
                [initial_current_a, step_current_a],
            )

        return self._integrate(
            load_current,
            duration_s,
            time_step_s,
            initial_current_a,
            method=method,
            sampler=load_samples,
        )

    def simulate_profile(
        self,
        load_profile: Callable[[float], float],
        duration_s: float,
        time_step_s: float = 0.5e-9,
        initial_current_a: float = 0.0,
        method: Optional[str] = None,
    ) -> DroopResult:
        """Simulate an arbitrary load-current profile ``i(t)``.

        *load_profile* may be any scalar callable; objects that additionally
        expose a vectorized ``sample(times) -> currents`` method (such as
        :class:`repro.pdn.transients.LoadTrace`) are sampled in one shot.
        """
        ensure_positive(duration_s, "duration_s")
        ensure_positive(time_step_s, "time_step_s")
        sampler = getattr(load_profile, "sample", None)
        return self._integrate(
            load_profile,
            duration_s,
            time_step_s,
            initial_current_a,
            method=method,
            sampler=sampler,
        )

    # -- integration ------------------------------------------------------------------

    def _settled_state(self, load_current_a: float) -> np.ndarray:
        """Analytic DC steady state for a constant load current."""
        stage_count = len(self._stages)
        state = np.zeros(2 * stage_count)
        # All series branches carry the load current at DC.
        state[:stage_count] = load_current_a
        # Capacitor voltages equal their node voltages (no capacitor current).
        voltage = self._nominal_voltage_v
        for index, stage in enumerate(self._stages):
            voltage -= stage.series_resistance_ohm * load_current_a
            state[stage_count + index] = voltage
        return state

    def _resolve_method(self, method: Optional[str]) -> str:
        if method is None:
            return self._method
        if method not in INTEGRATION_METHODS:
            raise ConfigurationError(
                f"unknown integration method {method!r}; "
                f"known: {list(INTEGRATION_METHODS)}"
            )
        return method

    def _step_count(self, duration_s: float, time_step_s: float) -> int:
        # Floor (with a roundoff allowance) so the last sample never
        # overshoots duration_s, unlike round() which could run past it by
        # up to half a step.
        steps = int(np.floor(duration_s / time_step_s * (1.0 + 1e-12)))
        if steps < 2:
            raise SimulationError("duration too short for the chosen time step")
        return steps

    def _integrate(
        self,
        load_profile: Callable[[float], float],
        duration_s: float,
        time_step_s: float,
        initial_current_a: float,
        method: Optional[str] = None,
        sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> DroopResult:
        resolved = self._resolve_method(method)
        steps = self._step_count(duration_s, time_step_s)
        times = np.arange(steps + 1) * time_step_s
        load_samples = self._sample(load_profile, times, sampler)
        if resolved == "exact":
            states = self._integrate_exact(
                load_samples, times, time_step_s, initial_current_a
            )
        else:
            midpoint_samples = self._sample(
                load_profile, times[:-1] + time_step_s / 2.0, sampler
            )
            states = self._integrate_rk4(
                load_samples, midpoint_samples, time_step_s, initial_current_a
            )
        load_voltages = self._load_voltages(states, load_samples)
        if not np.all(np.isfinite(load_voltages)):
            raise SimulationError("droop integration diverged; reduce time_step_s")
        final_dc_drop = float(
            self._series_resistance.sum() * (load_samples[-1] - initial_current_a)
        )
        return DroopResult(
            time_s=times,
            load_voltage_v=load_voltages,
            nominal_voltage_v=self._nominal_voltage_v,
            final_dc_drop_v=final_dc_drop,
        )

    def _sample(
        self,
        load_profile: Callable[[float], float],
        times: np.ndarray,
        sampler: Optional[Callable[[np.ndarray], np.ndarray]],
    ) -> np.ndarray:
        if sampler is not None:
            return np.asarray(sampler(times), dtype=float)
        return np.array([float(load_profile(t)) for t in times])

    def _load_voltages(
        self, states: np.ndarray, load_samples: np.ndarray
    ) -> np.ndarray:
        count = len(self._stages)
        esr = self._stages[-1].shunt_esr_ohm
        return states[:, 2 * count - 1] + esr * (states[:, count - 1] - load_samples)

    # -- RK4 as a linear one-step propagator -------------------------------------------

    def _rk4_matrices(self, time_step_s: float):
        """One-step RK4 propagator and input-weight matrices.

        For the linear system ``dx/dt = A x + B u(t)`` the classical RK4
        update collapses to::

            x+ = M x + G0 B u(t) + G1 B u(t + h/2) + G2 B u(t + h)

        with ``M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24`` and the G's
        below — the exact same arithmetic as evaluating the four k-stages,
        so the result matches the per-stage reference to roundoff.
        """
        cached = self._rk4_cache.get(time_step_s)
        if cached is not None:
            return cached
        hA = time_step_s * self._A
        hA2 = hA @ hA
        identity = np.eye(self._A.shape[0])
        propagator = identity + hA + hA2 / 2.0 + hA2 @ hA / 6.0 + hA2 @ hA2 / 24.0
        sixth = time_step_s / 6.0
        G0 = sixth * (identity + hA + hA2 / 2.0 + hA2 @ hA / 4.0)
        G1 = sixth * (4.0 * identity + 2.0 * hA + hA2 / 2.0)
        G2 = sixth * identity
        weights = (
            propagator,
            G0 @ self._b_load,
            G1 @ self._b_load,
            G2 @ self._b_load,
            (G0 + G1 + G2) @ self._b_source * self._nominal_voltage_v,
        )
        self._rk4_cache[time_step_s] = weights
        return weights

    def _integrate_rk4(
        self,
        load_samples: np.ndarray,
        midpoint_samples: np.ndarray,
        time_step_s: float,
        initial_current_a: float,
    ) -> np.ndarray:
        propagator, g0, g1, g2, source_term = self._rk4_matrices(time_step_s)
        drive = (
            np.outer(load_samples[:-1], g0)
            + np.outer(midpoint_samples, g1)
            + np.outer(load_samples[1:], g2)
            + source_term
        )
        initial_state = self._settled_state(initial_current_a)
        return self._propagate(propagator, drive, initial_state)

    # -- exact piecewise-linear discretization -----------------------------------------

    def _exact_matrices(self, time_step_s: float):
        """Exact discretization for loads linear within each step.

        Van Loan's augmented-exponential construction yields, in one
        ``expm``, the propagator ``E = e^(Ah)`` together with
        ``S1 = int_0^h e^(A s) ds`` and ``S2 = int_0^h e^(A s) s ds``.  For
        a load that ramps linearly from ``i_k`` to ``i_(k+1)`` across the
        step the update is then exact::

            x+ = E x + S1 b i_(k+1) - S2 b r + S1 b_src Vnom,   r = (i_(k+1) - i_k)/h
        """
        cached = self._exact_cache.get(time_step_s)
        if cached is not None:
            return cached
        size = self._A.shape[0]
        augmented = np.zeros((3 * size, 3 * size))
        augmented[:size, :size] = self._A * time_step_s
        augmented[:size, size : 2 * size] = np.eye(size) * time_step_s
        augmented[size : 2 * size, 2 * size :] = np.eye(size) * time_step_s
        exponential = _taylor_expm(augmented)
        propagator = exponential[:size, :size]
        # Van Loan blocks: S1 = int_0^h e^(As) ds and H1 = int_0^h e^(A(h-s)) s ds,
        # from which S2 = int_0^h e^(As) s ds = h S1 - H1.
        S1 = exponential[:size, size : 2 * size]
        H1 = exponential[:size, 2 * size :]
        S2 = time_step_s * S1 - H1
        weights = (
            propagator,
            S1 @ self._b_load,
            S2 @ self._b_load,
            S1 @ self._b_source * self._nominal_voltage_v,
        )
        self._exact_cache[time_step_s] = weights
        return weights

    def _integrate_exact(
        self,
        load_samples: np.ndarray,
        times: np.ndarray,
        time_step_s: float,
        initial_current_a: float,
    ) -> np.ndarray:
        propagator, s1_load, s2_load, source_term = self._exact_matrices(time_step_s)
        slopes = np.diff(load_samples) / time_step_s
        drive = (
            np.outer(load_samples[1:], s1_load)
            - np.outer(slopes, s2_load)
            + source_term
        )
        initial_state = self._settled_state(initial_current_a)
        return self._propagate(propagator, drive, initial_state)

    # -- linear-recurrence propagation -------------------------------------------------

    def _propagate(
        self, propagator: np.ndarray, drive: np.ndarray, initial_state: np.ndarray
    ) -> np.ndarray:
        """Solve ``x_(k+1) = M x_k + d_k`` for all steps.

        By prefix scan in the eigenbasis of ``M``, or — when that basis is
        too ill-conditioned to trust — one matrix-vector product per step.
        """
        eig = self._eigenbasis(propagator)
        if eig is None:
            return self._propagate_loop(propagator, drive, initial_state)
        return self._propagate_scan(eig, drive, initial_state)

    def _eigenbasis(self, propagator: np.ndarray):
        # Keyed by the matrix content: the RK4 and exact discretizations of
        # the same time step produce different propagators.
        key = propagator.tobytes()
        if key in self._eig_cache:
            return self._eig_cache[key]
        try:
            eigenvalues, basis = np.linalg.eig(propagator)
            condition = np.linalg.cond(basis)
            result = None
            if np.isfinite(condition) and condition <= _MAX_EIGENBASIS_CONDITION:
                result = (eigenvalues, basis, np.linalg.inv(basis))
        except np.linalg.LinAlgError:
            result = None
        self._eig_cache[key] = result
        return result

    def _propagate_scan(self, eig, drive: np.ndarray, initial_state: np.ndarray):
        """Vectorized parallel prefix scan over the diagonalised recurrence.

        In the eigenbasis each state component obeys the scalar recurrence
        ``z_(k+1) = lambda z_k + e_k``, an associative composition of affine
        maps, so all N steps resolve in log2(N) vectorized passes.
        """
        eigenvalues, basis, basis_inv = eig
        transformed_drive = drive.astype(complex) @ basis_inv.T
        gains = np.broadcast_to(eigenvalues, transformed_drive.shape).copy()
        offsets = transformed_drive.copy()
        stride = 1
        while stride < len(offsets):
            offsets[stride:] += gains[stride:] * offsets[:-stride]
            gains[stride:] *= gains[:-stride]
            stride *= 2
        initial_transformed = basis_inv @ initial_state.astype(complex)
        trajectory = offsets + gains * initial_transformed
        states = np.empty((len(drive) + 1, len(initial_state)))
        states[0] = initial_state
        states[1:] = (trajectory @ basis.T).real
        return states

    def _propagate_loop(
        self, propagator: np.ndarray, drive: np.ndarray, initial_state: np.ndarray
    ) -> np.ndarray:
        states = np.empty((len(drive) + 1, len(initial_state)))
        states[0] = initial_state
        state = initial_state
        for step in range(len(drive)):
            state = propagator @ state + drive[step]
            states[step + 1] = state
            if step % _DIVERGENCE_CHECK_STRIDE == 0 and not np.all(
                np.isfinite(state)
            ):
                raise SimulationError(
                    "droop integration diverged; reduce time_step_s"
                )
        return states
