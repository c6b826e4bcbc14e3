"""Bitwise pin of DPM-enabled runs under TALB and migration.

The engine goldens (``test_golden_runs.py``) all run with DPM off and
queue-length policies, so neither the sleep controller nor TALB's
thermal dispatch is pinned there. This file pins four 4 s, 16x16,
variable-flow runs with DPM on: MPlayer (mostly idle, so cores sleep
for most of the run) and Database, each under TALB and migration. Their
peak-temperature, chip-power, pump-setting and per-core temperature
series and sojourn totals were recorded in ``tests/data/golden_dpm.json``
and must match with ``==``. Two fresh processes produce identical bytes
for these runs.

Re-recorded once, when the exact tier's initial field became the affine
map ``Phi p + phi`` of the kept start-setting fields instead of six
leakage field solves: ``tmax`` and ``core_temperatures`` moved by at most
2.2e-14 K; ``chip_power``, ``flow_setting`` and the sojourn totals are
identical.

Regenerate the fixture (only with a stated reason) with
``PYTHONPATH=src python tests/sim/test_dpm_talb_pin.py``.
"""

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.sim.config import CoolingMode, PolicyKind, SimulationConfig
from repro.sim.engine import simulate

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "golden_dpm.json"

CASES = {
    f"{bench}-{policy.value}": SimulationConfig(
        benchmark_name=bench,
        policy=policy,
        cooling=CoolingMode.LIQUID_VARIABLE,
        nx=16,
        ny=16,
        duration=4.0,
        dpm_enabled=True,
    )
    for bench in ("MPlayer", "Database")
    for policy in (PolicyKind.TALB, PolicyKind.MIGRATION)
}

SERIES = ("tmax", "chip_power", "flow_setting", "core_temperatures")


def _record(result) -> dict:
    out = {field: getattr(result, field).tolist() for field in SERIES}
    out["sojourn_sum"] = result.sojourn_sum
    out["sojourn_count"] = result.sojourn_count
    return out


@functools.lru_cache(maxsize=None)
def _run(name: str, dpm: bool = True):
    return simulate(dataclasses.replace(CASES[name], dpm_enabled=dpm))


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
class TestDpmRunsArePinned:
    def test_series_and_sojourns_are_bitwise(self, name):
        got = _record(_run(name))
        ref = _golden()[name]
        for field in SERIES + ("sojourn_sum", "sojourn_count"):
            assert got[field] == ref[field], field

    def test_cores_really_sleep(self, name):
        on = _run(name, True).chip_power.sum()
        off = _run(name, False).chip_power.sum()
        assert on < off


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: _record(_run(name)) for name in sorted(CASES)}) + "\n"
    )
    print(f"wrote {FIXTURE}")
