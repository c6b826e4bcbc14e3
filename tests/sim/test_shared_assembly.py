"""Networks that differ only in coolant inlet share one assembly.

The inlet temperature enters only the boundary vector ``b``, so
``build_network`` keeps ``G``, ``C`` and the advection bookkeeping in a
weak, content-keyed operator store: the systems of an inlet sweep hold
the same read-only arrays, bitwise what a fresh assembly gives, and the
store holds nothing once they are gone. Every other input to the
matrices (each other ``ThermalParams`` field, the flow, the channel
model, the grid) keeps networks apart.
"""

import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest

from repro.geometry.stack import CoolingKind, build_stack
from repro.sim.system import ThermalSystem
from repro.thermal import rc_network
from repro.thermal.grid import ThermalGrid
from repro.thermal.package import AirPackage
from repro.thermal.rc_network import ThermalParams, build_network, clear_operator_store

from counters import Counters
from naive_thermal import naive_build_liquid

INLETS = (45.0, 60.0, 75.0)
CONFIGS = ((2, 16), (2, 32), (4, 16), (4, 32))
ASSEMBLY = "thermal.assembly{kind=%s}"
OTHER_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(ThermalParams)
    if f.name != "inlet_temperature"
)


def _inlet_systems(n_layers, n):
    return [
        ThermalSystem(
            n_layers, CoolingKind.LIQUID, nx=n, ny=n,
            params=ThermalParams(inlet_temperature=inlet),
        )
        for inlet in INLETS
    ]


def _networks(system):
    return [system.network(k) for k in range(system.pump.n_settings)]


def _arrays(net):
    """Every inlet-independent array of a network, by name."""
    g = net.conductance
    arrays = {
        "indptr": g.indptr, "indices": g.indices, "data": g.data,
        "capacitance": net.capacitance,
    }
    for c, (inlet, outlet) in enumerate(zip(net.advection_inlets, net.advection_outlets)):
        arrays[f"inlet{c}"] = inlet
        arrays[f"outlet{c}"] = outlet
    return arrays


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: f"{c[0]}L-{c[1]}x{c[1]}")
def sweep(request):
    """Cold inlet systems of one stack and grid, every setting's network
    built, with the assembly counts that took."""
    clear_operator_store()
    counters = Counters()
    systems = _inlet_systems(*request.param)
    networks = [_networks(system) for system in systems]
    counts = {kind: counters.delta(ASSEMBLY % kind) for kind in ("build", "shared")}
    return systems, networks, counts


class TestInletSweepSharesAssembly:
    def test_inlets_hold_the_same_g_and_c(self, sweep):
        _, networks, _ = sweep
        first = networks[0]
        for nets in networks[1:]:
            for net, ref in zip(nets, first):
                assert net.operator is ref.operator
                assert net.conductance is ref.conductance
                assert net.capacitance is ref.capacitance
                assert net.advection_inlets is ref.advection_inlets
                assert net.advection_conductances is ref.advection_conductances
                assert net.boundary is not ref.boundary

    def test_sweep_assembles_as_often_as_one_inlet(self, sweep):
        systems, _, counts = sweep
        n_settings = systems[0].pump.n_settings
        assert counts == {"build": n_settings, "shared": (len(INLETS) - 1) * n_settings}

    def test_bitwise_equal_to_a_fresh_assembly(self, sweep):
        systems, networks, _ = sweep
        for system, nets in zip(systems, networks):
            for k, net in enumerate(nets):
                clear_operator_store()
                fresh = build_network(
                    system.grid, system.params,
                    cavity_flows=[system.pump.setting(k).per_cavity_flow],
                    channel_model=system.channel_model,
                )
                assert fresh.operator is not net.operator
                shared, own = _arrays(net), _arrays(fresh)
                assert shared.keys() == own.keys()
                for name in shared:
                    assert _bitwise_equal(shared[name], own[name]), name
                assert _bitwise_equal(net.boundary, fresh.boundary)
                assert net.advection_conductances == fresh.advection_conductances
                assert net.inlet_temperature == fresh.inlet_temperature

    def test_boundary_matches_the_scalar_reference(self, sweep):
        # The scalar assembler adds each inlet cell's g * T_in itself.
        systems, networks, _ = sweep
        if systems[0].grid.nx != 16:
            pytest.skip("the scalar reference assembly is slow beyond 16x16")
        for system, nets in zip(systems, networks):
            flows = (system.pump.setting(0).per_cavity_flow,) * system.stack.n_cavities
            ref = naive_build_liquid(system.grid, system.params, flows, system.channel_model)
            assert _bitwise_equal(nets[0].boundary, ref.boundary)
            assert _bitwise_equal(nets[0].conductance.data, ref.conductance.data)
            assert _bitwise_equal(nets[0].capacitance, ref.capacitance)

    def test_shared_arrays_are_read_only(self, sweep):
        _, networks, _ = sweep
        net = networks[1][0]
        for name, array in _arrays(net).items():
            assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            net.conductance.data[0] = 0.0
        assert net.boundary.flags.writeable

    @pytest.mark.parametrize("field", OTHER_FIELDS)
    def test_any_other_field_does_not_share(self, sweep, field):
        system = sweep[0][0]

        def build(params):
            return build_network(
                system.grid, params,
                cavity_flows=[system.pump.setting(0).per_cavity_flow],
                channel_model=system.channel_model,
            )

        net = build(system.params)
        other = build(
            dataclasses.replace(
                system.params, **{field: getattr(system.params, field) * 1.01}
            )
        )
        assert other.operator is not net.operator

    def test_flow_channel_model_or_grid_does_not_share(self, sweep):
        system = sweep[0][0]
        flow = system.pump.setting(0).per_cavity_flow
        n = system.grid.nx

        def build(grid=system.grid, flow=flow, model=system.channel_model):
            return build_network(
                grid, system.params, cavity_flows=[flow], channel_model=model,
            )

        net = build()
        # A grid object of the same content shares: the key is content.
        same = ThermalGrid(build_stack(system.stack.n_dies), nx=n, ny=n)
        assert build(grid=same).operator is net.operator
        model = dataclasses.replace(system.channel_model, anchor_h=37000.0)
        others = [
            build(flow=flow * 1.01),
            build(model=model),
            build(grid=ThermalGrid(build_stack(system.stack.n_dies), nx=n, ny=n + 1)),
            build(grid=ThermalGrid(build_stack(6 - system.stack.n_dies), nx=n, ny=n)),
        ]
        for other in others:
            assert other.operator is not net.operator


class TestOperatorStore:
    def test_store_empties_once_the_systems_are_gone(self):
        def campaign():
            systems = _inlet_systems(2, 16)
            for system in systems:
                _networks(system)
                system.steady_solver(0)
                system.transient_solver(0, 0.1)
            assert len(rc_network._operator_store) == systems[0].pump.n_settings

        clear_operator_store()
        campaign()
        gc.collect()
        assert len(rc_network._operator_store) == 0

    def test_air_networks_share_across_inlets_but_not_packages(self):
        grid = ThermalGrid(build_stack(2, CoolingKind.AIR), nx=12, ny=12)
        cold = build_network(grid, ThermalParams(inlet_temperature=45.0))
        hot = build_network(grid, ThermalParams(inlet_temperature=75.0))
        assert hot.operator is cold.operator
        assert _bitwise_equal(hot.boundary, cold.boundary)
        warm_room = build_network(grid, ThermalParams(), package=AirPackage(ambient=40.0))
        assert warm_room.operator is not cold.operator

    def test_each_matrix_is_hashed_once(self, monkeypatch):
        calls = []
        digest = rc_network.matrix_digest
        monkeypatch.setattr(
            rc_network, "matrix_digest", lambda matrix: calls.append(1) or digest(matrix)
        )
        clear_operator_store()
        systems = _inlet_systems(2, 16)
        n_settings = systems[0].pump.n_settings
        for system in systems:
            for k in range(n_settings):
                system.steady_solver(k)
                system.transient_solver(k, 0.1)
        # One steady G and one 100 ms step matrix per setting, however
        # many inlet systems factorize or look them up.
        assert len(calls) == 2 * n_settings

    def test_replaced_matrices_get_their_own_operator(self):
        grid = ThermalGrid(build_stack(2), nx=8, ny=8)
        net = build_network(grid, ThermalParams(), cavity_flows=[1.0e-6])
        capacitance = np.array(net.capacitance) * 2.0
        doubled = dataclasses.replace(net, capacitance=capacitance)
        assert doubled.operator is not net.operator
        assert doubled.operator.capacitance is capacitance

    def test_concurrent_builds_share_one_operator(self):
        # Threads missing on one key at once may each assemble, but every
        # network ends up on the operator stored first.
        grid = ThermalGrid(build_stack(2), nx=12, ny=12)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        networks = [None] * n_threads

        def build(i):
            barrier.wait(timeout=30)
            networks[i] = build_network(
                grid, ThermalParams(inlet_temperature=40.0 + i), cavity_flows=[1.0e-6]
            )

        clear_operator_store()
        counters = Counters()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(net.operator is networks[0].operator for net in networks)
        builds, shared = (counters.delta(ASSEMBLY % kind) for kind in ("build", "shared"))
        assert builds >= 1 and builds + shared == n_threads
