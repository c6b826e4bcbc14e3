"""Shared experiment helpers: combo labels, text tables and the
setting-switch count."""

import numpy as np

from repro.experiments.common import (
    POLICY_MATRIX,
    combo_label,
    format_rows,
    matrix_spec,
    setting_switches,
    spec_labels,
)
from repro.sim.config import CoolingMode, PolicyKind


class TestLabels:
    def test_combo_label_accepts_enum_members_and_keys(self):
        assert combo_label(PolicyKind.TALB, CoolingMode.LIQUID_VARIABLE) == "TALB (Var)"
        assert combo_label("LB", CoolingMode.AIR) == "LB (Air)"

    def test_spec_labels_follow_the_policy_matrix(self):
        labels = spec_labels(matrix_spec())
        assert labels == [combo_label(p, c) for p, c in POLICY_MATRIX]
        assert labels[-1] == "TALB (Var)"


class TestFormatRows:
    def test_columns_are_aligned_and_floats_fixed_point(self):
        text = format_rows([{"a": 1.0, "name": "x"}, {"a": 12.25, "name": "longer"}])
        header, rule, first, second = text.splitlines()
        assert header.split() == ["a", "name"]
        assert set(rule) == {"-"} and len(rule) == len(header)
        assert first.split() == ["1.000", "x"]
        assert second.split() == ["12.250", "longer"]
        assert first.index("x") == second.index("longer") == header.index("name")

    def test_column_subset_and_empty_table(self):
        assert format_rows([{"a": 1, "b": 2}], columns=["b"]).splitlines()[-1] == "2"
        assert format_rows([]) == "(no rows)"


class TestSettingSwitches:
    def test_counts_changes_between_consecutive_settings(self):
        assert setting_switches(np.array([0, 0, 2, 2, 1])) == 2

    def test_air_samples_are_ignored(self):
        # -1 marks an air-cooled sample; 0 -> 2 is one switch across it.
        assert setting_switches(np.array([0, -1, 0, -1, 2])) == 1
        assert setting_switches(np.array([-1, -1, -1])) == 0

    def test_fewer_than_two_valid_samples_give_zero(self):
        assert setting_switches(np.array([], dtype=int)) == 0
        assert setting_switches(np.array([3])) == 0
        assert setting_switches(np.array([-1, 4, -1])) == 0
