"""RC network assembly: physics invariants of the conductance matrix."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.geometry.stack import CoolingKind, build_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import SteadyStateSolver

from helpers import power_vector

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module")
def liquid_net():
    grid = ThermalGrid(build_stack(2), nx=10, ny=10)
    return build_network(grid, ThermalParams(), cavity_flows=[FLOW])


@pytest.fixture(scope="module")
def air_net():
    grid = ThermalGrid(build_stack(2, CoolingKind.AIR), nx=10, ny=10)
    return build_network(grid, ThermalParams())


class TestAssemblyValidation:
    def test_liquid_requires_flows(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        with pytest.raises(ConfigurationError):
            build_network(grid, ThermalParams())

    def test_air_rejects_flows(self):
        grid = ThermalGrid(build_stack(2, CoolingKind.AIR), nx=8, ny=8)
        with pytest.raises(ConfigurationError):
            build_network(grid, ThermalParams(), cavity_flows=[FLOW])

    def test_flow_broadcast(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        net = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        assert net.cavity_flows == (FLOW, FLOW, FLOW)

    def test_flow_count_mismatch(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        with pytest.raises(ConfigurationError):
            build_network(grid, ThermalParams(), cavity_flows=[FLOW, FLOW])

    def test_rejects_negative_flow(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        with pytest.raises(ConfigurationError):
            build_network(grid, ThermalParams(), cavity_flows=[-1.0])


class TestMatrixInvariants:
    def test_diagonal_positive(self, liquid_net):
        diag = liquid_net.conductance.diagonal()
        assert np.all(diag > 0.0)

    def test_rows_weakly_diagonally_dominant(self, liquid_net):
        """Row sum >= 0: every node's couplings balance, with boundary
        (inlet/advection) conductance making some rows strictly
        dominant — a passivity condition for the RC network."""
        g = liquid_net.conductance.toarray()
        row_sums = g.sum(axis=1)
        assert np.all(row_sums >= -1.0e-10)

    def test_air_matrix_symmetric(self, air_net):
        """Without advection the network is reciprocal."""
        g = air_net.conductance
        asym = (g - g.T).toarray()
        assert np.abs(asym).max() < 1.0e-12

    def test_liquid_matrix_asymmetric(self, liquid_net):
        """Advection is directed: G must not be symmetric."""
        g = liquid_net.conductance
        asym = np.abs((g - g.T).toarray()).max()
        assert asym > 1.0e-6

    def test_zero_flow_is_symmetric(self):
        """No flow -> no advection -> reciprocal conduction network."""
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        net = build_network(grid, ThermalParams(), cavity_flows=[0.0])
        asym = np.abs((net.conductance - net.conductance.T).toarray()).max()
        assert asym < 1.0e-12

    def test_capacitance_positive(self, liquid_net, air_net):
        assert np.all(liquid_net.capacitance > 0.0)
        assert np.all(air_net.capacitance > 0.0)

    def test_boundary_non_negative(self, liquid_net, air_net):
        assert np.all(liquid_net.boundary >= 0.0)
        assert np.all(air_net.boundary >= 0.0)


class TestSteadyStatePhysics:
    def test_zero_power_settles_at_inlet(self, liquid_net):
        temps = SteadyStateSolver(liquid_net).solve(np.zeros(liquid_net.n_nodes))
        assert np.allclose(temps, 60.0, atol=1.0e-6)

    def test_zero_power_air_settles_at_ambient(self, air_net):
        temps = SteadyStateSolver(air_net).solve(np.zeros(air_net.n_nodes))
        assert np.allclose(temps, 45.0, atol=1.0e-6)

    def test_power_raises_temperature(self, liquid_net):
        grid = liquid_net.grid
        p = power_vector(grid, {(0, "core0"): 3.0})
        temps = SteadyStateSolver(liquid_net).solve(p)
        assert grid.unit_temperature(temps, 0, "core0") > 60.0

    def test_superposition(self, liquid_net):
        """The network is linear: responses to power maps add."""
        grid = liquid_net.grid
        solver = SteadyStateSolver(liquid_net)
        p1 = power_vector(grid, {(0, "core0"): 3.0})
        p2 = power_vector(grid, {(1, "l2_0"): 1.28})
        t0 = solver.solve(np.zeros(liquid_net.n_nodes))
        t1 = solver.solve(p1) - t0
        t2 = solver.solve(p2) - t0
        t12 = solver.solve(p1 + p2) - t0
        assert np.allclose(t12, t1 + t2, atol=1.0e-8)

    def test_more_flow_cools_better(self):
        grid = ThermalGrid(build_stack(2), nx=10, ny=10)
        p = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        tmax = []
        for ml in (150.0, 400.0, 1000.0):
            net = build_network(
                grid, ThermalParams(), cavity_flows=[units.ml_per_minute(ml)]
            )
            temps = SteadyStateSolver(net).solve(p)
            tmax.append(grid.max_die_temperature(temps))
        assert tmax[0] > tmax[1] > tmax[2]

    def test_downstream_cells_hotter(self, liquid_net):
        """Sensible heating: the coolant warms along the channel, so
        die cells above the channel outlet run hotter than the inlet
        side under spatially uniform power (injected per cell to avoid
        floorplan rasterization artifacts)."""
        grid = liquid_net.grid
        p = np.zeros(liquid_net.n_nodes)
        die_nodes = grid.slab_nodes(grid.die_slab_index(0))
        p[die_nodes.ravel()] = 24.0 / die_nodes.size
        temps = SteadyStateSolver(liquid_net).solve(p)
        field = grid.die_temperature_field(temps, 0)
        inlet_side = field[:, 2].mean()
        outlet_side = field[:, -3].mean()
        assert outlet_side > inlet_side

    def test_coolant_warms_monotonically_downstream(self, liquid_net):
        """The cavity fluid temperature is non-decreasing along the
        channel under any non-negative power map."""
        grid = liquid_net.grid
        p = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        temps = SteadyStateSolver(liquid_net).solve(p)
        for s in grid.cavity_slab_indices():
            profile = temps[grid.slab_nodes(s)].mean(axis=0)
            assert np.all(np.diff(profile) >= -1.0e-9)

    def test_energy_balance_through_coolant(self, liquid_net):
        """In steady state all injected power leaves through the
        boundaries; for a liquid stack that is the coolant enthalpy
        flux, i.e. sum(G T) - b = P must hold exactly."""
        grid = liquid_net.grid
        p = power_vector(grid, {(0, f"core{i}"): 3.0 for i in range(8)})
        temps = SteadyStateSolver(liquid_net).solve(p)
        residual = liquid_net.conductance @ temps - liquid_net.boundary - p
        assert np.abs(residual).max() < 1.0e-8


class TestTsvRegion:
    def test_crossbar_cells_conduct_better(self):
        """The TSV-filled crossbar region couples the dies more
        strongly: the fraction of a heated block's own rise that shows
        up on the block straight above is larger under the crossbar
        (copper TSV path) than under a core (plain interlayer)."""
        grid = ThermalGrid(build_stack(2), nx=16, ny=16)
        net = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        solver = SteadyStateSolver(net)

        p_xbar = power_vector(grid, {(0, "xbar"): 3.0})
        t_xbar = solver.solve(p_xbar)
        xbar_ratio = (grid.unit_temperature(t_xbar, 1, "xbar") - 60.0) / (
            grid.unit_temperature(t_xbar, 0, "xbar") - 60.0
        )

        p_core = power_vector(grid, {(0, "core0"): 3.0})
        t_core = solver.solve(p_core)
        core_ratio = (grid.unit_temperature(t_core, 1, "l2_0") - 60.0) / (
            grid.unit_temperature(t_core, 0, "core0") - 60.0
        )
        assert xbar_ratio > core_ratio

    def test_tsv_mask_changes_network(self):
        """Removing the TSVs (copper -> interlayer conductivity) must
        weaken the die-to-die coupling — the per-cell heterogeneous
        resistivity of Section III-A is live."""
        grid = ThermalGrid(build_stack(2), nx=16, ny=16)
        with_tsv = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        no_tsv = build_network(
            grid,
            ThermalParams(tsv_conductivity=1.0 / 0.25),
            cavity_flows=[FLOW],
        )
        p = power_vector(grid, {(0, "xbar"): 3.0})
        t_with = SteadyStateSolver(with_tsv).solve(p)
        t_without = SteadyStateSolver(no_tsv).solve(p)
        rise_with = grid.unit_temperature(t_with, 1, "xbar") - 60.0
        rise_without = grid.unit_temperature(t_without, 1, "xbar") - 60.0
        assert rise_with > rise_without


class TestInletTemperatureValidation:
    def test_accepts_the_operating_band(self):
        for inlet in (20.0, 60.0, 70.0, 120.0):
            assert ThermalParams(inlet_temperature=inlet).inlet_temperature == inlet

    def test_rejects_non_finite_values(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="inlet_temperature"):
                ThermalParams(inlet_temperature=bad)

    def test_rejects_out_of_range_values_with_a_clear_message(self):
        with pytest.raises(ConfigurationError, match="20-70 degC"):
            ThermalParams(inlet_temperature=-40.0)
        with pytest.raises(ConfigurationError, match="20-70 degC"):
            ThermalParams(inlet_temperature=500.0)


class TestInletBoundaryCoupling:
    def test_delta_is_none_at_the_assembled_inlet(self, liquid_net):
        assert liquid_net.inlet_boundary_delta(60.0) is None

    def test_air_network_has_no_advection_rows(self, air_net):
        assert air_net.inlet_boundary_delta(55.0) is None
        assert air_net.coolant_heat_rejected(
            np.full(air_net.n_nodes, 70.0)
        ) == 0.0

    def test_delta_shifts_the_steady_state_by_the_inlet_change(self):
        """Solving with the delta'd RHS equals re-assembling the
        network at the new inlet: the coupling is a pure boundary
        update, no refactorization required."""
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        base = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        moved = build_network(
            grid, ThermalParams(inlet_temperature=55.0), cavity_flows=[FLOW]
        )
        p = power_vector(grid, {(0, "core0"): 2.0})
        delta = base.inlet_boundary_delta(55.0)
        assert delta is not None
        t_patched = SteadyStateSolver(base).solve(p + delta)
        t_rebuilt = SteadyStateSolver(moved).solve(p)
        np.testing.assert_allclose(t_patched, t_rebuilt, atol=1e-8)

    def test_heat_rejected_matches_sensible_heat_balance(self):
        """At steady state the coolant picks up exactly the injected
        power (energy conservation through the advection rows)."""
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        net = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        p = power_vector(grid, {(0, "core0"): 2.0, (1, "l2_1"): 1.0})
        temps = SteadyStateSolver(net).solve(p)
        assert net.coolant_heat_rejected(temps) == pytest.approx(3.0, rel=1e-6)

    def test_heat_rejected_against_explicit_inlet(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        net = build_network(grid, ThermalParams(), cavity_flows=[FLOW])
        temps = np.full(net.n_nodes, 60.0)
        assert net.coolant_heat_rejected(temps) == 0.0
        assert net.coolant_heat_rejected(temps, t_inlet=59.0) > 0.0
