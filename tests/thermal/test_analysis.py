"""Step-response analysis: the paper's time-constant claim."""

import numpy as np
import pytest

from repro import units
from repro.errors import SolverError
from repro.geometry.stack import CoolingKind, build_stack
from repro.thermal.analysis import StepResponse, step_response
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network


@pytest.fixture(scope="module")
def liquid_network():
    grid = ThermalGrid(build_stack(2), nx=8, ny=8)
    return build_network(
        grid, ThermalParams(), cavity_flows=[units.ml_per_minute(400.0)]
    )


@pytest.fixture(scope="module")
def response(liquid_network):
    grid = liquid_network.grid
    power = grid.power_vector({(0, f"core{i}"): 3.0 for i in range(8)})
    return step_response(liquid_network, power, dt=0.005, max_time=2.0)


class TestStepResponse:
    def test_monotone_rise(self, response):
        assert np.all(np.diff(response.tmax) >= -1e-9)

    def test_approaches_final_value(self, response):
        assert response.tmax[-1] == pytest.approx(response.t_final, abs=0.05)

    def test_paper_time_constant_claim(self, response):
        """'the thermal time constant on a 3D system like ours is
        typically less than 100 ms' — and well below the 250-300 ms
        pump transition, which is the whole argument for forecasting."""
        tau = response.time_constant()
        assert tau < 0.1
        assert tau < 0.25  # Strictly below the pump transition.

    def test_settling_time_exceeds_time_constant(self, response):
        assert response.settling_time(0.05) > response.time_constant()

    def test_settling_fraction_bounds(self, response):
        fraction = response.settling_fraction()
        assert fraction[0] >= 0.0
        assert fraction[-1] == pytest.approx(1.0, abs=0.05)


class TestAirResponseSlower:
    def test_air_package_has_much_larger_settling(self):
        """The air path has two poles: a fast die/TIM rise and a slow
        sink tail (140 J/K behind 0.1 K/W, tau ~ 14 s). The 63 % point
        stays fast, but full settling takes many seconds — this slow
        tail is why air-cooled DTM papers can be reactive while the
        liquid stack (which settles completely in under a second,
        see TestStepResponse) cannot."""
        grid = ThermalGrid(build_stack(2, CoolingKind.AIR), nx=8, ny=8)
        net = build_network(grid, ThermalParams())
        power = grid.power_vector({(0, f"core{i}"): 3.0 for i in range(8)})
        resp = step_response(net, power, dt=0.1, max_time=120.0)
        assert resp.settling_time(0.02) > 2.0


class TestValidation:
    def test_rejects_bad_dt(self, liquid_network):
        with pytest.raises(SolverError):
            step_response(liquid_network, np.zeros(liquid_network.n_nodes), dt=0.0)

    @pytest.mark.parametrize("field", ["dt", "max_time"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0, 0.0])
    def test_non_finite_or_non_positive_time_names_the_field(
        self, liquid_network, field, bad
    ):
        times = {"dt": 0.005, "max_time": 2.0, field: bad}
        with pytest.raises(SolverError, match=field):
            step_response(liquid_network, np.zeros(liquid_network.n_nodes), **times)

    def test_max_time_must_exceed_dt(self, liquid_network):
        with pytest.raises(SolverError, match="max_time"):
            step_response(
                liquid_network, np.zeros(liquid_network.n_nodes), dt=0.5, max_time=0.5
            )

    def test_constant_input_degenerate(self):
        r = StepResponse(
            times=np.array([0.1, 0.2]),
            tmax=np.array([60.0, 60.0]),
            t_initial=60.0,
            t_final=60.0,
        )
        assert np.all(r.settling_fraction() == 1.0)
