"""The unit-response gate: one ``R`` block per steady matrix.

A cold flow table plus burst floor solves one ``R`` block and one base
column per pump setting; a cold 4-inlet sweep shares each ``R`` through
the steady LU, so it solves as many ``R`` blocks as one inlet and one
base column per inlet and setting; a repeat table on the same system
solves none. Read through the ``sim.characterize.unit_responses``
telemetry counter.
"""

from repro.sim.cache import CharacterizationCache, clear_system_memo, system_for
from repro.sim.config import CoolingMode, SimulationConfig
from repro.telemetry import metrics
from repro.thermal.rc_network import ThermalParams

INLETS = [45.0, 55.0, 65.0, 75.0]


def solved():
    responses = metrics.counter("sim.characterize.unit_responses")
    return responses.value(kind="response"), responses.value(kind="base")


def characterize(inlets):
    """Cold table + floor per inlet: (R blocks, base columns), and the
    last inlet's system and config."""
    clear_system_memo()  # cold: fresh systems and LUs, nothing memoized
    before = solved()
    for inlet in inlets:
        config = SimulationConfig(
            cooling=CoolingMode.LIQUID_VARIABLE, nx=16, ny=16,
            thermal_params=ThermalParams(inlet_temperature=inlet),
        )
        system = system_for(config)
        cache = CharacterizationCache()
        cache.table(system, config)
        cache.floor(system, config)
    after = solved()
    return after[0] - before[0], after[1] - before[1], system, config


def test_inlets_share_each_response():
    one = characterize(INLETS[:1])
    settings = one[2].pump.n_settings
    assert one[:2] == (settings, settings), (
        f"one inlet solved {one[:2]} (R, base) for {settings} settings"
    )
    four = characterize(INLETS)
    assert four[:2] == (settings, 4 * settings), (
        f"4 inlets solved {four[:2]} (R, base); expected ({settings}, {4 * settings})"
    )
    *_, system, config = four
    before = solved()
    CharacterizationCache().table(system, config)
    assert solved() == before, "a repeat table solved a unit response"
