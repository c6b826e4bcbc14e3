"""Visualize the thermal maps the policies act on (ASCII, no deps).

Solves the 2-layer stack's steady state in three conditions — uniform
load at low flow, uniform load at high flow, and a single hot core —
and renders each die as ASCII art. The pictures show the three effects
the paper's machinery exists for: the downstream (right-edge) warm-up
from sensible coolant heating, the overall cool-down from a higher pump
setting, and the local hot spot a single pinned thread creates.

Also measures the stack's step-response time constant, checking the
paper's timing argument (thermal tau << 250-300 ms pump transition).

Run:  python examples/thermal_map.py
"""

import numpy as np

from repro import units
from repro.power.components import PowerModel
from repro.sim.system import ThermalSystem
from repro.thermal.analysis import step_response
from repro.thermal.ascii_map import render_stack


def main() -> None:
    system = ThermalSystem(2, nx=24, ny=24)
    model = PowerModel(system.stack)
    cores = system.core_names

    print("### Uniform 90% load, LOWEST pump setting (208 ml/min/cavity)")
    temps = system.steady_temperatures(model, 0.9, setting_index=0)
    print(render_stack(system.grid, temps))

    print("\n### Same load, HIGHEST pump setting (1042 ml/min/cavity)")
    temps_hi = system.steady_temperatures(model, 0.9, setting_index=4)
    print(render_stack(system.grid, temps_hi))

    print("\n### One core pinned at 100%, others idle (lowest setting)")
    util = [1.0 if name == "core5" else 0.0 for name in cores]
    temps_one = system.steady_field(model, util, [False] * len(cores), 0.5, setting_index=0)
    print(render_stack(system.grid, temps_one))

    print("\n### Step-response timing (the controller's raison d'etre)")
    network = system.network(2)
    unit_power = np.zeros(system.grid.n_units)
    unit_power[system.grid.core_index] = 3.0  # every core at full power
    power = system.grid.power_vector_from_array(unit_power)
    response = step_response(network, power, dt=0.005, max_time=2.0)
    tau = response.time_constant()
    print(f"thermal time constant   : {units.to_ms(tau):.0f} ms "
          "(paper: 'typically less than 100 ms')")
    print("pump transition         : 250-300 ms")
    print(f"=> a reactive controller is {250.0 / units.to_ms(tau):.0f}x too slow; "
          "forecasting 500 ms ahead closes the gap.")


if __name__ == "__main__":
    main()
