"""The perf-trajectory gates in ``benchmarks/compare_bench.py``.

Timing regressions only warn; the algorithmic counters fail. The warm
gate reads ``warm_sweep.warm_refactorizations`` from the current
payload, and a baseline from before schema v8 (a ``cohort`` section
instead of ``warm_sweep``) is read without error. The schema v9
``lu_nnz`` fill section is printed only, and a v8 baseline without it
is read without error. The schema v11 ``cross_network`` GMRES counters
gate: on the same scipy neither may exceed the baseline's, and a
baseline without them is a note. From schema
v12 the inlet sweep must solve as many unit-response ``R`` blocks as a
single inlet; an older payload without the counts is a note. From
schema v13 it must assemble as many networks as a single inlet, with
the same note for older payloads. From schema v15 each wall-clock ratio
is divided by the payloads' speed-probe ratio before it can warn. From
schema v16 the inlet sweep must keep no steady LU resident after
warm-up, and no more LUs (nor, on the same scipy, more fill) than the
baseline after warm-up or after its runs. The ``cross_network`` times of
both tiers are printed next to their ratio, never warned on.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _PATH)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def payload(warm_refactorizations=0, runs_per_sec=20.0, transient_nnz=218_000):
    """A minimal current-schema payload whose other gates pass."""
    warm = {"n_runs": 16, "runs_per_sec_per_core": runs_per_sec}
    if warm_refactorizations is not None:
        warm["warm_refactorizations"] = warm_refactorizations
    return {
        "schema_version": 9,
        "lu_nnz": {
            "32x32": {"transient": transient_nnz, "pivoted_transient": 289_000}
        },
        "results": {"assembly_16x16": 0.01},
        "warm_sweep": warm,
        "inlet_sweep": {
            "factorizations": 9,
            "single_inlet_factorizations": 9,
            "duplicate_factorizations": 0,
        },
    }


PRE_V8_BASELINE = {
    "schema_version": 7,
    "results": {"assembly_16x16": 0.01},
    "cohort": {
        "n_runs": 16,
        "cohort_exact_speedup": 3.5,
        "cohort_block_speedup": 2.9,
        "warm_refactorizations": 0,
    },
}


class TestWarmSweepGate:
    def test_zero_warm_refactorizations_pass(self, capsys):
        assert compare_bench.compare(payload(), payload()) == 0
        assert "gate: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("refactorizations", [None, 1])
    def test_missing_or_nonzero_counter_fails(self, refactorizations, capsys):
        failures = compare_bench.compare(
            payload(warm_refactorizations=refactorizations), payload()
        )
        assert failures == 1
        assert "::error title=perf gate::" in capsys.readouterr().out

    def test_pre_v8_cohort_baseline_is_read_without_error(self, capsys):
        assert compare_bench.compare(payload(), PRE_V8_BASELINE) == 0
        out = capsys.readouterr().out
        assert "pre-v8 cohort section" in out

    def test_throughput_loss_warns_but_never_fails(self, capsys):
        slow = payload(runs_per_sec=10.0)
        assert compare_bench.compare(slow, payload()) == 0
        assert "::warning" in capsys.readouterr().out


class TestLuFill:
    def test_v8_baseline_without_lu_nnz_is_read_without_error(self, capsys):
        v8 = payload()
        del v8["lu_nnz"]
        v8["schema_version"] = 8
        assert compare_bench.compare(payload(), v8) == 0
        out = capsys.readouterr().out
        assert "lu_nnz: new this run" in out
        assert "218000" in out

    def test_more_fill_is_printed_but_never_warns(self, capsys):
        denser = payload(transient_nnz=300_000)
        assert compare_bench.compare(denser, payload()) == 0
        out = capsys.readouterr().out
        assert "lu_nnz_32x32" in out and "300000" in out
        assert "::warning" not in out


def with_cross_network(base, **gmres):
    """``base`` plus a passing ``cross_network`` section."""
    return {
        **base,
        "cross_network": {
            "n_points": 16,
            "krylov_factorizations": 2,
            "krylov_speedup": 1.2,
            "preconditioner_hit_rate": 0.94,
            **gmres,
        },
    }


def on_scipy(base, version):
    """``base`` as recorded on scipy ``version``."""
    return {**base, "environment": {"scipy": version}}


class TestCrossNetworkGmresCounters:
    BASELINE = with_cross_network(
        payload(), krylov_iterations=520, krylov_gmres_solves=120
    )

    def test_as_much_or_less_gmres_work_passes(self, capsys):
        current = with_cross_network(
            payload(), krylov_iterations=470, krylov_gmres_solves=120
        )
        assert compare_bench.compare(current, self.BASELINE) == 0
        out = capsys.readouterr().out
        assert "krylov_iterations" in out and "470" in out
        assert out.count("(gate: ok, <= baseline)") == 2

    @pytest.mark.parametrize(
        "key, value", [("krylov_iterations", 521), ("krylov_gmres_solves", 121)]
    )
    def test_more_gmres_work_fails_on_the_same_scipy(self, key, value, capsys):
        current = with_cross_network(
            payload(), **{"krylov_iterations": 520, "krylov_gmres_solves": 120, key: value}
        )
        assert compare_bench.compare(current, self.BASELINE) == 1
        out = capsys.readouterr().out
        assert f"::error title=perf gate::cross-network krylov campaign ran {key} {value}" in out

    def test_more_gmres_work_is_not_gated_across_scipy_versions(self, capsys):
        current = with_cross_network(
            payload(), krylov_iterations=9000, krylov_gmres_solves=900
        )
        baseline = on_scipy(self.BASELINE, "1.17.1")
        assert compare_bench.compare(on_scipy(current, "1.18.0"), baseline) == 0
        out = capsys.readouterr().out
        assert "krylov_iterations" in out and "9000" in out
        assert "scipy differs" in out
        assert "::warning" not in out

    def test_both_tiers_times_are_printed_but_never_warn(self, capsys):
        current = with_cross_network(payload(), exact_s=6.34, krylov_s=3.05)
        baseline = with_cross_network(payload(), exact_s=4.81, krylov_s=3.10)
        assert compare_bench.compare(current, baseline) == 0
        out = capsys.readouterr().out
        assert "exact_s" in out and "4.810" in out and "6.340" in out
        assert "krylov_s" in out and "3.100" in out and "3.050" in out
        assert "::warning" not in out

    def test_pre_v11_baseline_without_them_is_read(self, capsys):
        current = with_cross_network(
            payload(), krylov_iterations=3000, krylov_gmres_solves=900
        )
        assert compare_bench.compare(current, with_cross_network(payload())) == 0
        out = capsys.readouterr().out
        assert "(krylov_iterations: not on both sides, not gated)" in out


def with_responses(base, responses, single=5, schema=12):
    """``base`` at ``schema`` with the v12 unit-response counts."""
    inlet = {**base["inlet_sweep"]}
    if responses is not None:
        inlet.update(responses=responses, single_inlet_responses=single)
    return {**base, "schema_version": schema, "inlet_sweep": inlet}


class TestInletSweepResponseGate:
    def test_shared_r_passes(self, capsys):
        assert compare_bench.compare(with_responses(payload(), 5), payload()) == 0
        assert "inlet_sweep_responses" in capsys.readouterr().out

    @pytest.mark.parametrize("responses", [20, 0, None])
    def test_unshared_zero_or_missing_r_fails(self, responses, capsys):
        current = with_responses(payload(), responses)
        assert compare_bench.compare(current, payload()) == 1
        assert "unit-response R blocks" in capsys.readouterr().out

    def test_pre_v12_payload_without_them_is_a_note(self, capsys):
        current = with_responses(payload(), None, schema=11)
        assert compare_bench.compare(current, payload()) == 0
        assert "pre-v12 payload" in capsys.readouterr().out


def with_assemblies(base, assemblies, single=5, schema=13):
    """``base`` at ``schema`` with passing v12 responses and the v13
    assembly counts."""
    current = with_responses(base, 5, schema=schema)
    if assemblies is not None:
        current["inlet_sweep"].update(
            assemblies=assemblies, single_inlet_assemblies=single
        )
    return current


class TestInletSweepAssemblyGate:
    def test_shared_assembly_passes(self, capsys):
        assert compare_bench.compare(with_assemblies(payload(), 5), payload()) == 0
        out = capsys.readouterr().out
        assert "inlet_sweep_assemblies" in out and "gate: ok" in out

    @pytest.mark.parametrize("assemblies", [20, 0, None])
    def test_unshared_zero_or_missing_assemblies_fail(self, assemblies, capsys):
        current = with_assemblies(payload(), assemblies)
        assert compare_bench.compare(current, payload()) == 1
        assert "perf gate::cold inlet sweep assembled" in capsys.readouterr().out

    def test_pre_v13_payload_without_them_is_a_note(self, capsys):
        current = with_assemblies(payload(), None, schema=12)
        assert compare_bench.compare(current, payload()) == 0
        assert "pre-v13 payload" in capsys.readouterr().out


def resident(steady=0, steady_nnz=0, steps=2, steps_nnz=60_000):
    """One v16 residency reading: LU count and fill per ordering."""
    return {
        "pivoted": {"count": steady, "nnz": steady_nnz},
        "symmetric": {"count": steps, "nnz": steps_nnz},
    }


def with_residency(base, after_warm, after_campaign=None, schema=16, scipy="1.17.1"):
    """``base`` at ``schema`` with passing v12/v13 counts and the v16
    residency readings (omitted when ``after_warm`` is None)."""
    current = with_assemblies(base, 5, schema=schema)
    current["environment"] = {"scipy": scipy}
    if after_warm is not None:
        current["inlet_sweep"].update(
            resident_after_warm=after_warm,
            resident_after_campaign=after_campaign or resident(),
        )
    return current


class TestInletSweepResidencyGate:
    BASELINE = with_residency(payload(), resident(steps=0, steps_nnz=0))

    def test_no_steady_lu_passes(self, capsys):
        current = with_residency(payload(), resident(steps=0, steps_nnz=0))
        assert compare_bench.compare(current, self.BASELINE) == 0
        out = capsys.readouterr().out
        assert "resident_steady_after_warm" in out and "gate: ok" in out

    @pytest.mark.parametrize("steady", [1, 5])
    def test_any_steady_lu_fails(self, steady, capsys):
        current = with_residency(payload(), resident(steady=steady, steps=0, steps_nnz=0))
        assert compare_bench.compare(current, self.BASELINE) >= 1
        assert "steady LUs resident after warm-up" in capsys.readouterr().out

    def test_more_than_the_baseline_fails(self, capsys):
        current = with_residency(
            payload(), resident(steps=0, steps_nnz=0), resident(steps=3, steps_nnz=90_000)
        )
        assert compare_bench.compare(current, self.BASELINE) == 2
        out = capsys.readouterr().out
        assert "resident_after_campaign.symmetric.count is 3" in out

    def test_fill_is_not_gated_across_scipy_versions(self, capsys):
        current = with_residency(
            payload(),
            resident(steps=0, steps_nnz=0),
            resident(steps_nnz=90_000),
            scipy="1.18.0",
        )
        assert compare_bench.compare(current, self.BASELINE) == 0
        assert "scipy differs" in capsys.readouterr().out

    def test_missing_readings_fail(self, capsys):
        current = with_residency(payload(), None)
        assert compare_bench.compare(current, self.BASELINE) == 1
        assert "no inlet_sweep residency readings" in capsys.readouterr().out

    def test_pre_v16_payload_or_baseline_is_a_note(self, capsys):
        current = with_residency(payload(), None, schema=15)
        assert compare_bench.compare(current, self.BASELINE) == 0
        assert "pre-v16 payload" in capsys.readouterr().out
        current = with_residency(payload(), resident(steps=0, steps_nnz=0))
        assert compare_bench.compare(current, payload()) == 0
        assert "no baseline readings" in capsys.readouterr().out


def probed(current, probe_s, scale=1.0):
    """``current`` with a speed probe (schema v15) and every timing
    scaled by ``scale``."""
    current["environment"] = {"speed_probe_s": probe_s}
    current["results"] = {k: v * scale for k, v in current["results"].items()}
    current["warm_sweep"]["runs_per_sec_per_core"] /= scale
    return current


class TestSpeedProbe:
    def test_a_slow_machine_state_does_not_warn(self, capsys):
        """Unchanged code timed while the machine ran 1.6x slower: the
        probe ran 1.6x slower too, so the corrected ratios are 1.0."""
        slow = probed(payload(), 3.2e-4, scale=1.6)
        assert compare_bench.compare(slow, probed(payload(), 2.0e-4)) == 0
        out = capsys.readouterr().out
        assert "1.60x" in out
        assert "::warning" not in out

    def test_each_timing_is_corrected_by_its_own_section(self, capsys):
        """A section that ran in a slow spell of an otherwise fast run
        is corrected by its own probe, not the run's mean."""
        current = payload()
        current["results"]["assembly_16x16"] *= 1.6
        current["environment"] = {
            "speed_probe_s": 2.0e-4,
            "section_probe_s": {"assembly_16x16": 3.2e-4, "warm_sweep": 2.0e-4},
        }
        baseline = probed(payload(), 2.0e-4)
        baseline["environment"]["section_probe_s"] = {
            "assembly_16x16": 2.0e-4, "warm_sweep": 2.0e-4,
        }
        assert compare_bench.compare(current, baseline) == 0
        assert "::warning" not in capsys.readouterr().out
        del current["environment"]["section_probe_s"]
        assert compare_bench.compare(current, baseline) == 0
        assert "assembly_16x16" in capsys.readouterr().out.split("::warning")[1]

    def test_a_slowdown_beyond_the_probe_still_warns(self, capsys):
        slow = probed(payload(), 2.0e-4, scale=1.6)
        assert compare_bench.compare(slow, probed(payload(), 2.0e-4)) == 0
        out = capsys.readouterr().out
        assert "assembly_16x16" in out and "speed-corrected" in out
        assert "warm sweep" in out

    def test_without_a_probe_on_both_sides_ratios_are_raw(self, capsys):
        slow = probed(payload(), 3.2e-4, scale=1.6)
        assert compare_bench.compare(slow, payload()) == 0
        out = capsys.readouterr().out
        assert "wall-clock ratios are raw" in out
        assert "::warning" in out
