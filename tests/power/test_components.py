"""Component power model (Section V constants and scaling)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.geometry.floorplan import Floorplan, t1_cache_layer, t1_core_layer
from repro.geometry.stack import Die, build_stack
from repro.power.components import CoreState, PowerModel
from repro.power.leakage import LeakageModel


@pytest.fixture
def model():
    return PowerModel(build_stack(2), leakage=None)


@pytest.fixture
def model_with_leakage():
    return PowerModel(build_stack(2), leakage=LeakageModel())


class TestCorePower:
    def test_fully_active_is_3w(self, model):
        assert model.core_power(1.0, CoreState.ACTIVE) == pytest.approx(3.0)

    def test_idle_blend(self, model):
        assert model.core_power(0.5, CoreState.ACTIVE) == pytest.approx(
            0.5 * 3.0 + 0.5 * 1.0
        )

    def test_sleep_is_20mw(self, model):
        assert model.core_power(0.0, CoreState.SLEEP) == pytest.approx(0.02)

    def test_sleep_ignores_utilization(self, model):
        assert model.core_power(0.9, CoreState.SLEEP) == pytest.approx(0.02)

    def test_rejects_bad_utilization(self, model):
        with pytest.raises(ModelError):
            model.core_power(1.5, CoreState.ACTIVE)


class TestL2Power:
    def test_full_activity_is_cacti_value(self, model):
        assert model.l2_bank_power(1.0) == pytest.approx(1.28)

    def test_background_fraction(self, model):
        assert model.l2_bank_power(0.0) == pytest.approx(1.28 * 0.4)


class TestCrossbarPower:
    def test_peak(self, model):
        assert model.crossbar_power(1.0, 1.0) == pytest.approx(
            model.crossbar_peak
        )

    def test_floor(self, model):
        assert model.crossbar_power(0.0, 0.0) == pytest.approx(
            0.2 * model.crossbar_peak
        )

    def test_rejects_out_of_range(self, model):
        with pytest.raises(ModelError):
            model.crossbar_power(1.2, 0.5)
        with pytest.raises(ModelError):
            model.crossbar_power(0.5, -0.1)


def _unit_keys(model):
    return [(d, u.name) for d, die in enumerate(model.stack.dies) for u in die.floorplan]


def _powers(model, util, asleep, memory_intensity, temps=None):
    """``{(die_index, unit_name): watts}`` from the vector power map."""
    keys = _unit_keys(model)
    vec = model.unit_power_vector(keys, util, asleep, memory_intensity, temps)
    return dict(zip(keys, vec.tolist()))


class TestUnitPowers:
    def _inputs(self, util=0.5):
        return [util] * 8, [False] * 8

    def test_covers_every_unit(self, model):
        util, asleep = self._inputs()
        powers = _powers(model, util, asleep, 0.5)
        expected_units = sum(len(d.floorplan.units) for d in model.stack.dies)
        assert len(powers) == expected_units

    def test_total_power_plausible(self, model):
        util, asleep = self._inputs(util=1.0)
        total = sum(_powers(model, util, asleep, 1.0).values())
        # 8*3 + 4*1.28 + crossbars + misc: roughly 30-35 W (no leakage).
        assert 29.0 < total < 36.0

    def test_leakage_adds_power(self, model, model_with_leakage):
        util, asleep = self._inputs()
        base = sum(_powers(model, util, asleep, 0.5).values())
        with_leak = sum(_powers(model_with_leakage, util, asleep, 0.5).values())
        assert with_leak > base + 2.0

    def test_leakage_grows_with_temperature(self, model_with_leakage):
        util, asleep = self._inputs()
        n_units = len(_unit_keys(model_with_leakage))
        p_cold = sum(
            _powers(model_with_leakage, util, asleep, 0.5, np.full(n_units, 60.0)).values()
        )
        p_hot = sum(
            _powers(model_with_leakage, util, asleep, 0.5, np.full(n_units, 90.0)).values()
        )
        assert p_hot > p_cold + 1.0

    def test_sleeping_core_drops_to_sleep_power(self, model):
        util, asleep = self._inputs(util=0.0)
        asleep[0] = True
        powers = _powers(model, util, asleep, 0.0)
        assert powers[(0, "core0")] == pytest.approx(0.02)

    def test_l2_bank_pairing(self, model):
        """Bank l2_k serves cores 2k and 2k+1: sleeping both cores
        drops that bank to its background power."""
        util, asleep = self._inputs(util=1.0)
        asleep[0] = asleep[1] = True
        powers = _powers(model, util, asleep, 0.5)
        sleepy_bank = powers[(1, "l2_0")]
        busy_bank = powers[(1, "l2_1")]
        assert sleepy_bank == pytest.approx(1.28 * 0.4)
        assert busy_bank == pytest.approx(1.28)

    def test_bad_bank_name_raises(self):
        cache_die = build_stack(2).dies[1]
        units = [
            dataclasses.replace(u, name="l2cache") if u.name == "l2_0" else u
            for u in cache_die.floorplan
        ]
        plan = cache_die.floorplan
        stack = dataclasses.replace(
            build_stack(2),
            dies=(
                Die(t1_core_layer()),
                Die(Floorplan(plan.name, plan.width, plan.height, units)),
            ),
        )
        model = PowerModel(stack, leakage=None)
        with pytest.raises(ModelError, match="'l2cache'"):
            _powers(model, [0.5] * 8, [False] * 8, 0.5)

    def test_bank_without_partner_cores_raises(self):
        # Banks l2_4..l2_7 serve cores 8-15, which a single core die lacks.
        stack = dataclasses.replace(
            build_stack(2), dies=(Die(t1_core_layer()), Die(t1_cache_layer(l2_offset=4)))
        )
        model = PowerModel(stack, leakage=None)
        with pytest.raises(ModelError, match="'l2_4' serves 'core8'"):
            _powers(model, [0.5] * 8, [False] * 8, 0.5)

    @pytest.mark.parametrize("sleeping", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_bad_utilization_names_the_core(self, model, bad, sleeping):
        util, asleep = self._inputs()
        util[3] = bad
        asleep[3] = sleeping
        with pytest.raises(ModelError, match=r"utilization .* of core3 outside"):
            _powers(model, util, asleep, 0.5)

    def test_needs_one_entry_per_core(self, model):
        with pytest.raises(ModelError, match="each of 8 cores"):
            _powers(model, [0.5] * 7, [False] * 7, 0.5)


class TestFourLayer:
    def test_16_core_power(self):
        model = PowerModel(build_stack(4), leakage=None)
        powers = _powers(model, [1.0] * 16, [False] * 16, 1.0)
        core_total = sum(
            w for (d, name), w in powers.items() if name.startswith("core")
        )
        assert core_total == pytest.approx(48.0)


_LOADS = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8),
            min_size=k, max_size=k,
        ),
        st.lists(st.lists(st.booleans(), min_size=8, max_size=8), min_size=k, max_size=k),
        st.one_of(
            st.none(),
            st.lists(
                st.lists(
                    st.floats(min_value=20.0, max_value=120.0), min_size=18, max_size=18
                ),
                min_size=k, max_size=k,
            ),
        ),
    )
)


class TestUnitPowerMatrix:
    """``unit_power_matrix`` is ``unit_power_vector`` of many loads at
    once: each row is bitwise the single call, sleep flags, leakage and
    ``None`` temperatures included."""

    @pytest.mark.parametrize("leakage", [None, LeakageModel()], ids=["dynamic", "leakage"])
    @settings(max_examples=60, deadline=None)
    @given(loads=_LOADS, memory_intensity=st.floats(min_value=0.0, max_value=1.0))
    def test_rows_are_single_calls_bitwise(self, leakage, loads, memory_intensity):
        model = PowerModel(build_stack(2), leakage=leakage)
        keys = _unit_keys(model)
        utils, asleep, temps = loads
        temps = None if temps is None else np.array(temps)
        batch = model.unit_power_matrix(keys, utils, asleep, memory_intensity, temps)
        assert batch.shape == (len(utils), len(keys))
        for c in range(len(utils)):
            row = model.unit_power_vector(
                keys, utils[c], asleep[c], memory_intensity,
                None if temps is None else temps[c],
            )
            assert batch[c].tobytes() == row.tobytes()

    def test_bad_utilization_names_the_core(self, model):
        util = [[0.5] * 8, [0.5] * 8]
        util[1][5] = 1.5
        with pytest.raises(ModelError, match=r"utilization 1.5 of core5 outside"):
            model.unit_power_matrix(_unit_keys(model), util, [[False] * 8] * 2, 0.5)
