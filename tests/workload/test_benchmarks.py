"""Table II benchmark descriptors."""

import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import TABLE_II, BenchmarkSpec, benchmark


class TestTableIIValues:
    def test_eight_benchmarks(self):
        assert len(TABLE_II) == 8

    @pytest.mark.parametrize(
        "name,util,i_miss,d_miss,fp",
        [
            ("Web-med", 53.12, 12.9, 167.7, 31.2),
            ("Web-high", 92.87, 67.6, 288.7, 31.2),
            ("Database", 17.75, 6.5, 102.3, 5.9),
            ("Web&DB", 75.12, 21.5, 115.3, 24.1),
            ("gcc", 15.25, 31.7, 96.2, 18.1),
            ("gzip", 9.0, 2.0, 57.0, 0.2),
            ("MPlayer", 6.5, 9.6, 136.0, 1.0),
            ("MPlayer&Web", 26.62, 9.1, 66.8, 29.9),
        ],
    )
    def test_row(self, name, util, i_miss, d_miss, fp):
        spec = TABLE_II[name]
        assert spec.avg_utilization == util
        assert spec.l2_i_miss == i_miss
        assert spec.l2_d_miss == d_miss
        assert spec.fp_instructions == fp

    def test_indices_match_table_order(self):
        assert [s.index for s in TABLE_II.values()] == list(range(1, 9))

    def test_utilization_fraction(self):
        assert TABLE_II["Web-high"].utilization == pytest.approx(0.9287)


class TestMemoryIntensity:
    def test_web_high_is_most_intensive(self):
        assert TABLE_II["Web-high"].memory_intensity == pytest.approx(1.0)

    def test_all_in_unit_interval(self):
        for spec in TABLE_II.values():
            assert 0.0 < spec.memory_intensity <= 1.0

    def test_gzip_least_intensive(self):
        lows = min(TABLE_II.values(), key=lambda s: s.memory_intensity)
        assert lows.name == "gzip"

    def test_total_l2_miss_sums_instruction_and_data_misses(self):
        for spec in TABLE_II.values():
            assert spec.total_l2_miss == spec.l2_i_miss + spec.l2_d_miss

    def test_normalized_by_the_largest_combined_miss_rate(self):
        top = max(spec.total_l2_miss for spec in TABLE_II.values())
        for spec in TABLE_II.values():
            assert spec.memory_intensity == pytest.approx(spec.total_l2_miss / top)


class TestLookup:
    def test_case_insensitive(self):
        assert benchmark("web-HIGH") is TABLE_II["Web-high"]

    def test_unknown_raises_with_choices(self):
        with pytest.raises(WorkloadError, match="available"):
            benchmark("SPECint")


class TestValidation:
    def test_rejects_bad_utilization(self):
        with pytest.raises(WorkloadError):
            BenchmarkSpec(9, "bad", 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(WorkloadError):
            BenchmarkSpec(9, "bad", 120.0, 1.0, 1.0, 1.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(WorkloadError):
            BenchmarkSpec(9, "bad", 50.0, -1.0, 1.0, 1.0)
