"""The co-simulation engine (Figure 4's loop), stepped per interval.

Each control interval (100 ms):

1. the scheduler substrate runs at a 10 ms quantum — thread arrivals
   are dispatched and per-core queues execute — and DPM then updates
   the sleep states once, from each core's last dispatch or busy
   quantum (exactly what a per-quantum update would end the interval
   with; see :mod:`repro.power.dpm`);
2. the interval's per-unit power map is computed (dynamic + leakage at
   the previous interval's temperatures);
3. the thermal RC network advances one backward-Euler step at the
   effective pump setting;
4. per-core sensors are sampled, the forecaster observes the new
   maximum temperature and predicts 500 ms ahead;
5. the flow-rate controller commands the pump (variable-flow mode);
6. the scheduling policy rebalances the queues.

Per-core state in the loop (queues, busy time, utilization, sleep
flags, sensor readings) lives in lists and arrays indexed in
``ThermalSystem.core_names`` order; the ``{core: temperature}`` dict
is built once per interval, for the policy interface only.

The loop is exposed one interval at a time: :meth:`Simulator.step`
executes stages 1-6 once and returns an :class:`IntervalState`;
:meth:`Simulator.run` is a thin loop over it that also notifies
registered observers (:class:`IntervalObserver`), any of which can
stream, probe, or stop the run early. There is **no type dispatch** in
the loop: the policy, flow controller, and forecaster are built from
the string-keyed component registries (:mod:`repro.registry`) named by
the config, and behavioral differences are declared capabilities —
``FlowController.reacts_to_forecast`` selects the controller's input
signal, ``SchedulerPolicy.migration_count`` is recorded uniformly.

The engine caches flow-table characterizations and TALB weight sets per
config identity (:func:`~repro.sim.cache.system_key`), since these are
offline pre-processing steps in the paper. The cache is an explicit
:class:`~repro.sim.cache.CharacterizationCache`: a process-wide default
instance (:func:`default_cache`) serves every simulator built without
one, and a pre-warmed cache can be injected per :class:`Simulator` (or
installed with :func:`set_default_cache` in a worker process) for batch
fan-out.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np

from repro.constants import CONTROL
from repro.errors import ConfigurationError, SchedulingError
from repro.geometry.stack import CoolingKind
from repro.power.dpm import DpmPolicy
from repro.pump.laing_ddc import PumpState
from repro.registry import (
    ControllerContext,
    FacilityContext,
    ForecasterContext,
    PolicyContext,
    controller_registry,
    facility_registry,
    forecaster_registry,
    policy_registry,
)
from repro.sched.base import CoreQueues
from repro.sched.weights import ThermalWeights
from repro.sim.cache import CharacterizationCache, power_model_for, system_for
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.results import SimulationResult
from repro.telemetry import trace as _trace
from repro.workload.generator import ThreadTrace
from repro.workload.threads import DONE_TOLERANCE

_default_cache = CharacterizationCache()


def default_cache() -> CharacterizationCache:
    """The process-wide characterization cache."""
    return _default_cache


def set_default_cache(cache: CharacterizationCache) -> None:
    """Replace the process-wide cache (e.g. with a pre-warmed one
    shipped to a :class:`repro.runner.BatchRunner` worker)."""
    global _default_cache
    _default_cache = cache


class IntervalState(NamedTuple):
    """What one control interval produced — the observer's view.

    An immutable named tuple, built once per interval.

    Attributes
    ----------
    index:
        Zero-based interval index just executed.
    n_intervals:
        Total intervals the configured run spans.
    time:
        Simulation time at the interval's end, s.
    tmax:
        Maximum sensor (unit-mean) temperature, degC.
    tmax_cell:
        Maximum cell-level die temperature (ground truth), degC.
    forecast_tmax:
        The temperature the controller decision was based on (forecast,
        or the measured value when forecasting is disabled).
    core_temperatures:
        Per-core sensor temperatures, degC.
    chip_power:
        Total chip power over the interval, W.
    pump_power:
        Pump electrical power (0 for air cooling), W.
    flow_setting:
        Commanded pump setting index (-1 for air cooling).
    completed_threads:
        Threads that finished during this interval.
    migrations:
        Cumulative running-thread migrations so far.
    facility_inlet_temperature:
        Coolant inlet temperature the interval's solve used, degC (NaN
        when no facility loop is co-simulated — the fixed-inlet run).
    facility_cooling_power:
        Facility cooling power (chiller + tower fans + facility pumps)
        this interval at aggregate scale, W (NaN without a facility).
    """

    index: int
    n_intervals: int
    time: float
    tmax: float
    tmax_cell: float
    forecast_tmax: float
    core_temperatures: Mapping[str, float]
    chip_power: float
    pump_power: float
    flow_setting: int
    completed_threads: int
    migrations: int
    facility_inlet_temperature: float = float("nan")
    facility_cooling_power: float = float("nan")

    @property
    def done(self) -> bool:
        """Whether this was the configured run's final interval."""
        return self.index + 1 >= self.n_intervals


@runtime_checkable
class IntervalObserver(Protocol):
    """A streaming hook :meth:`Simulator.run` invokes per interval.

    Returning a truthy value stops the run early (after every observer
    has seen the interval); the simulator then returns the truncated
    result. Plain callables with the same signature work too.
    """

    def on_interval(self, state: IntervalState) -> Optional[bool]:
        """Observe one executed interval; return True to stop the run."""
        ...


class _RunState:
    """Mutable per-run loop state (everything `run()` used to keep in
    locals), so the loop can advance one `step()` at a time."""

    __slots__ = (
        "n_intervals", "steps", "queues", "core_queues", "core_pos", "dpm",
        "forecaster", "spec",
        "temperatures", "unit_vec", "core_index", "core_names", "core_temps",
        "unit_keys",
        "arrivals", "arrival_ptr", "sojourn_sum", "sojourn_count", "k",
        "rec_times", "rec_tmax", "rec_tmax_cell", "rec_core_t", "rec_unit_t",
        "rec_chip_p", "rec_pump_p", "rec_setting", "rec_completed",
        "rec_forecast", "rec_migrations",
        "rec_fac_inlet", "rec_fac_cooling", "rec_fac_water", "rec_fac_free",
    )


class Simulator:
    """One configured simulation run.

    Parameters
    ----------
    config:
        The run configuration. Its ``policy``, ``controller``,
        ``forecaster``, and ``workload`` registry keys (plus their
        params) decide which components this simulator builds.
    trace:
        Optional pre-built thread trace; defaults to the trace the
        config's ``workload`` registry key builds (the Table II
        synthetic generator unless configured otherwise).
    cache:
        Optional :class:`~repro.sim.cache.CharacterizationCache` to
        draw offline characterizations from (defaults to the
        process-wide cache).
    observers:
        :class:`IntervalObserver`\\ s notified per interval by
        :meth:`run`.

    A simulator is one-shot: :meth:`step` walks the configured
    intervals exactly once (``run()`` is a thin loop over it), and
    :meth:`result` can snapshot the series at any point along the way.
    """

    def __init__(
        self,
        config: SimulationConfig,
        trace: Optional[ThreadTrace] = None,
        cache: Optional[CharacterizationCache] = None,
        observers: Iterable[IntervalObserver] = (),
    ) -> None:
        self.config = config
        self.cache = cache if cache is not None else _default_cache
        self.system = system_for(config)
        self.power_model = power_model_for(config, self.system)
        cooling = self.system.cooling
        self.trace = (
            trace if trace is not None else self.cache.thread_trace(config)
        )
        self._cooling_kind = cooling
        self._observers = list(observers)
        self._weights: dict[int, ThermalWeights] = {}
        self._policy = policy_registry().create(
            config.policy,
            config.policy_params,
            PolicyContext(
                config=config,
                system=self.system,
                cache=self.cache,
                weight_provider=self._talb_weights,
            ),
        )
        self._pump_state: Optional[PumpState] = None
        self._controller = None
        if config.cooling.is_liquid:
            self._pump_state = PumpState(
                self.system.pump, current_index=self.system.start_setting
            )
            if config.cooling is CoolingMode.LIQUID_VARIABLE:
                self._controller = controller_registry().create(
                    config.controller,
                    config.controller_params,
                    ControllerContext(
                        config=config,
                        pump_state=self._pump_state,
                        system=self.system,
                        cache=self.cache,
                    ),
                )
        self._facility = facility_registry().create(
            config.facility,
            config.facility_params,
            FacilityContext(
                config=config,
                initial_inlet_temperature=config.thermal_params.inlet_temperature,
                system=self.system,
            ),
        )
        if self._facility is not None and not config.cooling.is_liquid:
            raise ConfigurationError(
                f"facility {config.facility!r} co-simulates the liquid "
                "cooling loop; air-cooled runs reject no coolant heat "
                "(use facility='none')"
            )
        self._state: Optional[_RunState] = None

    def _talb_weights(self, tmax: float) -> ThermalWeights:
        """Weight provider: the pre-processed set for the current
        cooling condition (pump setting or air), fetched from the cache
        once per setting this run visits."""
        if self._cooling_kind is CoolingKind.AIR or self._pump_state is None:
            setting = -1
        else:
            setting = self._pump_state.current_index
        weights = self._weights.get(setting)
        if weights is None:
            weights = self.cache.thermal_weights(self.system, setting, self.config)
            self._weights[setting] = weights
        return weights

    # --- stepped execution -------------------------------------------------

    @property
    def interval_count(self) -> int:
        """Control intervals the configured run spans."""
        return int(round(self.config.duration / self.config.sampling_interval))

    @property
    def intervals_completed(self) -> int:
        """Intervals executed so far."""
        return self._state.k if self._state is not None else 0

    @property
    def finished(self) -> bool:
        """Whether every configured interval has executed."""
        return self.intervals_completed >= self.interval_count

    def _ensure_state(self) -> _RunState:
        if self._state is not None:
            return self._state
        config = self.config
        grid = self.system.grid
        interval = config.sampling_interval
        core_names = self.system.core_names

        st = _RunState()
        st.n_intervals = self.interval_count
        st.steps = int(round(interval / config.quantum))
        st.queues = CoreQueues(core_names)
        # Per-core state in the quanta loop is indexed in core order.
        st.core_queues = [st.queues.queue(name) for name in core_names]
        st.core_pos = {name: i for i, name in enumerate(core_names)}
        st.dpm = DpmPolicy(core_names, enabled=config.dpm_enabled)
        st.spec = config.spec

        # The steady initial field is a cached characterization, shared
        # read-only; each step builds a new field, never writes it.
        st.temperatures = self.cache.initial_field(self.system, config)
        # Unit/core temperatures live in arrays aligned to the grid's
        # stable unit ordering; the small per-core dict is rebuilt only
        # for the policy interface.
        st.unit_keys = list(grid.unit_keys)
        st.unit_vec = grid.unit_temperature_vector(st.temperatures)
        st.core_index = grid.core_index.tolist()
        st.core_names = list(core_names)
        unit_temps = st.unit_vec.tolist()
        st.core_temps = dict(zip(core_names, [unit_temps[i] for i in st.core_index]))
        st.forecaster = forecaster_registry().create(
            config.forecaster,
            config.forecaster_params,
            ForecasterContext(
                config=config,
                horizon_steps=int(round(CONTROL.forecast_horizon / interval)),
            ),
        )

        st.arrivals = list(self.trace.threads)
        st.arrival_ptr = 0
        st.sojourn_sum = 0.0
        st.sojourn_count = 0
        st.k = 0

        n = st.n_intervals
        st.rec_times = np.zeros(n)
        st.rec_tmax = np.zeros(n)
        st.rec_tmax_cell = np.zeros(n)
        st.rec_core_t = np.zeros((n, len(core_names)))
        st.rec_unit_t = np.zeros((n, len(st.unit_keys)))
        st.rec_chip_p = np.zeros(n)
        st.rec_pump_p = np.zeros(n)
        st.rec_setting = np.full(n, -1, dtype=int)
        st.rec_completed = np.zeros(n, dtype=int)
        st.rec_forecast = np.full(n, np.nan)
        st.rec_migrations = np.zeros(n, dtype=int)
        if self._facility is not None:
            st.rec_fac_inlet = np.zeros(n)
            st.rec_fac_cooling = np.zeros(n)
            st.rec_fac_water = np.zeros(n)
            st.rec_fac_free = np.zeros(n, dtype=bool)
        else:
            st.rec_fac_inlet = None
            st.rec_fac_cooling = None
            st.rec_fac_water = None
            st.rec_fac_free = None
        self._state = st
        return st

    def step(self) -> IntervalState:
        """Execute one control interval (stages 1-6) and record it."""
        with _trace.span("step") as step_span:
            st = self._ensure_state()
            if st.k >= st.n_intervals:
                raise ConfigurationError(
                    "simulation already ran its configured duration; build a "
                    "new Simulator to run again"
                )
            config = self.config
            grid = self.system.grid
            interval = config.sampling_interval
            pump_state = self._pump_state
            facility = self._facility
            k = st.k
            t_start = k * interval

            utilization, asleep, completed_in_interval = self._run_quanta(
                st, t_start
            )
            t_end = t_start + interval
            if pump_state is not None:
                pump_state.advance(t_end)

            unit_powers = self.power_model.unit_power_vector(
                st.unit_keys, utilization, asleep, st.spec.memory_intensity, st.unit_vec
            )
            # The solve setting: the commanded pump setting for liquid
            # cooling, -1 (the air network) otherwise.
            setting = (
                pump_state.current_index
                if pump_state is not None
                and self._cooling_kind is CoolingKind.LIQUID
                else -1
            )
            step_span.set_attrs(index=k, setting=setting)
            node_power = grid.power_vector_from_array(unit_powers)
            inlet_temperature = float("nan")
            if facility is not None:
                # Closed-loop coupling: the facility's current loop
                # temperature is this interval's coolant inlet. The inlet
                # enters the ODE only through the (linear) boundary term,
                # so the change is folded into the right-hand side here —
                # the memoized network and its factorization are reused
                # untouched, on the exact and krylov solve paths alike.
                network = self.system.network(setting)
                inlet_temperature = facility.inlet_temperature
                delta = network.inlet_boundary_delta(inlet_temperature)
                if delta is not None:
                    node_power += delta
            solver = self.system.transient_solver(setting, interval)
            st.temperatures = solver.step(st.temperatures, node_power)
            # Sensor readings as Python floats: one conversion feeds the
            # peak, the per-core list and the policy's dict.
            st.unit_vec = grid.unit_temperature_vector(st.temperatures)
            unit_temps = st.unit_vec.tolist()
            core_temps = [unit_temps[i] for i in st.core_index]
            st.core_temps = dict(zip(st.core_names, core_temps))
            # Runtime policies observe sensors (unit means), as in the
            # paper; the cell-level peak is recorded as ground truth.
            # The field is finite (the solver checks), so the Python max
            # is the array max.
            tmax = max(unit_temps)
            tmax_cell = grid.max_die_temperature(st.temperatures)

            st.forecaster.observe(tmax)
            if config.forecast_enabled:
                # The controller acts on the forecast, guarded by the
                # current reading: a prediction below an already-high
                # temperature must not postpone an upshift.
                prediction = max(st.forecaster.predict(), tmax)
            else:
                # Ablation: a purely reactive controller sees only the
                # current temperature and eats the full pump delay.
                prediction = tmax
            if self._controller is not None:
                # Declared capability, not type dispatch: proactive
                # controllers consume the forecast, reactive ones the
                # measured temperature.
                signal = prediction if self._controller.reacts_to_forecast else tmax
                self._controller.update(signal, t_end)

            self._policy.rebalance(st.queues, st.core_temps, t_end)

            chip_power = float(unit_powers.sum())
            pump_power = 0.0
            flow_setting = -1
            if pump_state is not None:
                pump_power = float(pump_state.electrical_power())
                flow_setting = pump_state.commanded_index
            migrations = self._policy.migration_count
            st.rec_times[k] = t_end
            st.rec_tmax[k] = tmax
            st.rec_tmax_cell[k] = tmax_cell
            st.rec_core_t[k] = core_temps
            st.rec_unit_t[k] = st.unit_vec
            st.rec_chip_p[k] = chip_power
            st.rec_pump_p[k] = pump_power
            st.rec_setting[k] = flow_setting
            st.rec_completed[k] = completed_in_interval
            st.rec_forecast[k] = prediction
            st.rec_migrations[k] = migrations

            fac_inlet = float("nan")
            fac_cooling = float("nan")
            if facility is not None:
                # Close the loop: the heat the coolant carried out this
                # interval (sensible-heat balance over the channel rows)
                # drives the facility energy balance, whose new loop
                # temperature becomes the next interval's inlet.
                q_chip = network.coolant_heat_rejected(
                    st.temperatures, inlet_temperature
                )
                fac_state = facility.advance(interval, q_chip, chip_power, pump_power)
                st.rec_fac_inlet[k] = inlet_temperature
                st.rec_fac_cooling[k] = fac_state.cooling_power
                st.rec_fac_water[k] = fac_state.water_use
                st.rec_fac_free[k] = fac_state.free_cooling
                fac_inlet = inlet_temperature
                fac_cooling = fac_state.cooling_power
            st.k = k + 1

            return IntervalState(
                index=k,
                n_intervals=st.n_intervals,
                time=t_end,
                tmax=tmax,
                tmax_cell=tmax_cell,
                forecast_tmax=prediction,
                core_temperatures=dict(st.core_temps),
                chip_power=chip_power,
                pump_power=pump_power,
                flow_setting=flow_setting,
                completed_threads=completed_in_interval,
                migrations=int(migrations),
                facility_inlet_temperature=fac_inlet,
                facility_cooling_power=fac_cooling,
            )

    def _run_quanta(
        self, st: _RunState, t_start: float
    ) -> tuple[list[float], list[bool], int]:
        """Stage 1: dispatch arrivals and execute the per-core queues at
        the scheduler quantum for one interval, then close the interval
        in DPM. Returns each core's utilization and sleep flag (core
        order) and the threads completed."""
        quantum = self.config.quantum
        queues = st.core_queues
        core_pos = st.core_pos
        arrivals = st.arrivals
        n_arrivals = len(arrivals)
        ptr = st.arrival_ptr
        dispatch_target = self._policy.dispatch_target
        enqueue = st.queues.enqueue
        n_cores = len(queues)
        busy_time = [0.0] * n_cores
        # Each core's last dispatch (quantum start) or busy quantum
        # (quantum end), overwritten in quantum order, and the index of
        # its last busy quantum.
        last_event: list[Optional[float]] = [None] * n_cores
        busy_step = [-1] * n_cores
        completed_in_interval = 0
        sojourn_sum = st.sojourn_sum
        sojourn_count = st.sojourn_count

        end = t_start
        for s in range(st.steps):
            now = t_start + s * quantum
            end = now + quantum
            # Dispatch arrivals that landed in this quantum.
            while ptr < n_arrivals and arrivals[ptr].arrival < end:
                target = dispatch_target(st.queues, st.core_temps)
                enqueue(target, arrivals[ptr])
                last_event[core_pos[target]] = now
                ptr += 1
            # Execute queue heads. A thread dispatched mid-quantum
            # only gets the post-arrival fraction of the quantum:
            # without the clamp it would execute before its own
            # arrival and could complete with a negative sojourn.
            for i, q in enumerate(queues):
                if not q:
                    continue
                head = q[0]
                arrival = head.arrival
                start = now if arrival <= now else arrival
                span = end - start
                # Execution is inlined: the ~40 head executions per
                # interval make no calls.
                remaining = head.remaining
                span = span if span > 0.0 else 0.0
                used = span if span < remaining else remaining
                remaining -= used
                head.remaining = remaining
                if used > 0.0:
                    busy_time[i] += used
                    busy_step[i] = s
                    last_event[i] = end
                if remaining <= DONE_TOLERANCE:
                    q.popleft()
                    completed_in_interval += 1
                    sojourn = (start + used) - arrival
                    if sojourn < 0.0:
                        raise SchedulingError(
                            f"negative sojourn {sojourn:.6f}s for thread "
                            f"{head.thread_id} (arrival {arrival:.6f}s)"
                        )
                    sojourn_sum += sojourn
                    sojourn_count += 1
        st.arrival_ptr = ptr
        st.sojourn_sum = sojourn_sum
        st.sojourn_count = sojourn_count

        last = st.steps - 1
        asleep = st.dpm.observe(end, last_event, [b == last for b in busy_step])
        interval = self.config.sampling_interval
        utilization = []
        for b in busy_time:
            u = b / interval
            utilization.append(u if u < 1.0 else 1.0)  # min(1.0, u)
        return utilization, asleep, completed_in_interval

    def result(self) -> SimulationResult:
        """The recorded series through the last executed interval.

        Callable at any point — mid-run (a probe), after an observer
        stopped the run early (a truncated but fully consistent
        series), or at completion (the full run).
        """
        st = self._ensure_state()
        k = st.k
        return SimulationResult(
            times=st.rec_times[:k].copy(),
            tmax=st.rec_tmax[:k].copy(),
            tmax_cell=st.rec_tmax_cell[:k].copy(),
            core_temperatures=st.rec_core_t[:k].copy(),
            unit_temperatures=st.rec_unit_t[:k].copy(),
            unit_names=[f"{d}:{name}" for d, name in st.unit_keys],
            core_names=list(self.system.core_names),
            chip_power=st.rec_chip_p[:k].copy(),
            pump_power=st.rec_pump_p[:k].copy(),
            flow_setting=st.rec_setting[:k].copy(),
            completed_threads=st.rec_completed[:k].copy(),
            forecast_tmax=st.rec_forecast[:k].copy(),
            migrations=st.rec_migrations[:k].copy(),
            retrain_count=st.forecaster.retrain_count,
            sojourn_sum=st.sojourn_sum,
            sojourn_count=st.sojourn_count,
            facility_inlet=(
                st.rec_fac_inlet[:k].copy() if st.rec_fac_inlet is not None else None
            ),
            facility_cooling_power=(
                st.rec_fac_cooling[:k].copy()
                if st.rec_fac_cooling is not None
                else None
            ),
            facility_water_use=(
                st.rec_fac_water[:k].copy() if st.rec_fac_water is not None else None
            ),
            facility_free_cooling=(
                st.rec_fac_free[:k].copy() if st.rec_fac_free is not None else None
            ),
            facility_scale=(
                float(self._facility.scale) if self._facility is not None else 1.0
            ),
        )

    def run(self) -> SimulationResult:
        """Execute the remaining intervals, notifying observers.

        Every observer sees every interval (no short-circuiting); if
        any returned True the run stops after that interval and the
        truncated series is returned.
        """
        while not self.finished:
            state = self.step()
            stop = False
            for observer in self._observers:
                hook = getattr(observer, "on_interval", observer)
                if hook(state):
                    stop = True
            if stop:
                break
        return self.result()


def simulate(
    config: SimulationConfig,
    trace: Optional[ThreadTrace] = None,
    cache: Optional[CharacterizationCache] = None,
    observers: Iterable[IntervalObserver] = (),
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(config, trace=trace, cache=cache, observers=observers).run()
