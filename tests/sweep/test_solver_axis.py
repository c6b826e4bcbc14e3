"""The ``solver`` config axis: signatures, sweeps, neighbor execution order."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    BatchRunner,
    signature_groups,
    structural_signature,
    thermal_signature,
)
from repro.runner import batch as batch_module
from repro.sim.config import SimulationConfig
from repro.sweep import SweepSpec
from repro.sweep.spec import config_signature
from repro.thermal.rc_network import ThermalParams


class TestSolverSignature:
    def test_default_solver_omitted_from_signature(self):
        # Pre-solver fingerprints, checkpoints, and dist ledgers must
        # keep validating, so the default tier never appears.
        assert "solver" not in config_signature(SimulationConfig())

    def test_krylov_solver_recorded_in_signature(self):
        signature = config_signature(SimulationConfig(solver="krylov"))
        assert signature["solver"] == "krylov"

    def test_fingerprint_discriminates_solver(self):
        exact = SweepSpec(base=SimulationConfig(duration=2.0))
        krylov = SweepSpec(base=SimulationConfig(duration=2.0, solver="krylov"))
        assert exact.fingerprint() != krylov.fingerprint()


class TestSolverAxis:
    def test_solver_is_sweepable(self):
        spec = SweepSpec(grid={"solver": ["exact", "krylov"]})
        points = list(spec.iter_points())
        assert [p.config.solver for p in points] == ["exact", "krylov"]
        assert "solver=krylov" in points[1].key

    def test_bad_solver_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"solver": ["superlu"]})

    def test_validate_all_names_bad_later_solver(self):
        spec = SweepSpec(grid={"solver": ["exact", "superlu"]})
        with pytest.raises(ConfigurationError, match="solver"):
            spec.validate_all()


def _configs(solver, scales=(4.0, 4.4)):
    return [
        SimulationConfig(
            duration=2.0,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=scale),
        )
        for scale in scales
    ]


class TestNeighborCohorts:
    def test_structural_signature_ignores_thermal_params(self):
        a, b = _configs("krylov")
        assert thermal_signature(a) != thermal_signature(b)
        assert structural_signature(a) == structural_signature(b)

    def test_structural_signature_respects_geometry(self):
        a, b = _configs("krylov")
        wide = SimulationConfig(
            duration=2.0, solver="krylov", nx=32,
            thermal_params=ThermalParams(resistance_scale=4.0),
        )
        assert structural_signature(a) != structural_signature(wide)

    def test_default_grouping_unchanged_by_neighbors_flag(self):
        # Exact-tier configs group by their full thermal signature:
        # different thermal params never share a group.
        configs = _configs("exact")
        assert signature_groups(configs) == [[0], [1]]

    def test_krylov_configs_form_neighbor_cohorts(self):
        groups = signature_groups(_configs("krylov"))
        assert groups == [[0, 1]]
        # They still differ in their full thermal signature.
        a, b = _configs("krylov")
        assert thermal_signature(a) != thermal_signature(b)

    def test_mixed_tiers_never_share_a_cohort(self):
        configs = _configs("exact", scales=(4.0,)) + _configs(
            "krylov", scales=(4.0,)
        )
        groups = signature_groups(configs)
        assert len(groups) == 2

    def test_krylov_design_points_execute_contiguously(self, monkeypatch):
        """Krylov points interleaved with exact runs still execute back
        to back, so each preconditions off its neighbor's LU."""
        configs = [
            SimulationConfig(
                duration=0.2, nx=8, ny=8, solver=solver,
                thermal_params=ThermalParams(resistance_scale=scale),
            )
            for solver, scale in (
                ("krylov", 4.0), ("exact", 4.0), ("krylov", 4.4),
                ("exact", 4.4), ("krylov", 4.8),
            )
        ]
        executed = []
        execute_one = batch_module._execute_one

        def recording(index, config):
            executed.append(index)
            return execute_one(index, config)

        monkeypatch.setattr(batch_module, "_execute_one", recording)
        runs = list(BatchRunner(configs).iter_runs())
        assert executed == [0, 2, 4, 1, 3]
        assert [run.index for run in runs] == [0, 1, 2, 3, 4]
