"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* valid configuration, not just the
paper's: RC-network passivity, scheduler conservation laws, LUT
monotonicity on arbitrary monotone characterizations.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.control.flow_table import CharacterizationResult, FlowRateTable
from repro.geometry.stack import build_stack
from repro.sched.base import CoreQueues
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import SteadyStateSolver
from repro.workload.threads import Thread

from helpers import power_vector

slow_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestNetworkPassivity:
    @slow_settings
    @given(
        nx=st.integers(min_value=4, max_value=12),
        flow_mlmin=st.floats(min_value=50.0, max_value=1100.0),
        scale=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_steady_state_bounded_by_inlet_and_power(self, nx, flow_mlmin, scale):
        """Passivity: with non-negative power every node sits at or
        above the inlet temperature, and with zero power exactly at it,
        for any grid resolution, flow, and calibration scale."""
        grid = ThermalGrid(build_stack(2), nx=nx, ny=nx)
        params = ThermalParams(resistance_scale=scale)
        net = build_network(
            grid, params, cavity_flows=[units.ml_per_minute(flow_mlmin)]
        )
        solver = SteadyStateSolver(net)
        zero = solver.solve(np.zeros(net.n_nodes))
        assert np.allclose(zero, params.inlet_temperature, atol=1e-6)
        p = power_vector(grid, {(0, "core0"): 2.0, (1, "l2_1"): 1.0})
        temps = solver.solve(p)
        assert np.all(temps >= params.inlet_temperature - 1e-9)

    @slow_settings
    @given(
        watts=st.floats(min_value=0.1, max_value=10.0),
        flow_mlmin=st.floats(min_value=100.0, max_value=1000.0),
    )
    def test_energy_leaves_through_coolant(self, watts, flow_mlmin):
        """Steady-state residual G T - b - P vanishes: all injected
        power is carried away by the boundaries."""
        grid = ThermalGrid(build_stack(2), nx=6, ny=6)
        net = build_network(
            grid, ThermalParams(), cavity_flows=[units.ml_per_minute(flow_mlmin)]
        )
        p = power_vector(grid, {(0, "core3"): watts})
        temps = SteadyStateSolver(net).solve(p)
        residual = net.conductance @ temps - net.boundary - p
        assert np.abs(residual).max() < 1e-8


class TestQueueConservation:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["enqueue", "move", "migrate"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=60,
        )
    )
    def test_thread_count_conserved_under_any_op_sequence(self, ops):
        cores = [f"c{i}" for i in range(4)]
        queues = CoreQueues(cores)
        created = 0
        for op, a, b in ops:
            if op == "enqueue":
                queues.enqueue(cores[a], Thread(created, arrival=0.0, length=0.1))
                created += 1
            elif op == "move":
                queues.move_waiting(cores[a], cores[b], 1)
            else:
                queues.migrate_running(cores[a], cores[b])
            assert queues.total_threads() == created

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=10), min_size=3, max_size=3
        )
    )
    def test_load_balancer_always_terminates_balanced(self, counts):
        from repro.sched.load_balancer import LoadBalancer

        cores = ["a", "b", "c"]
        queues = CoreQueues(cores)
        tid = 0
        for core, n in zip(cores, counts):
            for _ in range(n):
                queues.enqueue(core, Thread(tid, arrival=0.0, length=0.1))
                tid += 1
        LoadBalancer(threshold=1).rebalance(queues, {}, 0.0)
        lengths = list(queues.lengths().values())
        # Within threshold, except queues pinned by their running head.
        assert max(lengths) - min(lengths) <= max(1, counts.count(0) and 1)
        assert sum(lengths) == sum(counts)


class TestLutMonotonicity:
    @given(
        base=st.floats(min_value=60.0, max_value=75.0),
        load_gain=st.floats(min_value=5.0, max_value=40.0),
        cooling_gain=st.floats(min_value=0.5, max_value=6.0),
    )
    def test_required_setting_monotone_for_any_monotone_physics(
        self, base, load_gain, cooling_gain
    ):
        """For any linear-monotone characterization the LUT's required
        setting is non-decreasing in the predicted temperature."""
        utils = np.linspace(0.0, 1.0, 9)
        tmax = np.array(
            [
                [base + load_gain * u - cooling_gain * k for u in utils]
                for k in range(4)
            ]
        )
        table = FlowRateTable(
            CharacterizationResult(
                utilizations=utils,
                tmax=tmax,
                per_cavity_flows=(1.0, 2.0, 3.0, 4.0),
                target=80.0,
            )
        )
        temps = np.linspace(base - 5.0, base + load_gain + 5.0, 25)
        for observed in range(4):
            settings_seq = [table.required_setting(t, observed) for t in temps]
            assert settings_seq == sorted(settings_seq)
