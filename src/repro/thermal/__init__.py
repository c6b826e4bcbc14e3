"""Grid-level RC thermal modeling of 3D stacks (Section III).

This subpackage is the HotSpot-v4.2-like substrate the paper extends:
a grid RC network per tier, with the paper's novelty — per-cell,
runtime-varying thermal resistivities for the interlayer material so
TSVs and coolant microchannels are modelled distinctly, and coolant
cells change conductance with the flow rate.
"""

from repro.thermal.grid import Slab, SlabKind, ThermalGrid
from repro.thermal.package import AirPackage
from repro.thermal.rc_network import RCNetwork, ThermalParams, build_network
from repro.thermal.solver import (
    KRYLOV_MAX_ITERATIONS,
    KRYLOV_TEMPERATURE_TOLERANCE,
    KRYLOV_TOLERANCE,
    KrylovSteadySolver,
    KrylovTransientSolver,
    NeighborFactorCache,
    SteadyStateSolver,
    TransientSolver,
    clear_neighbor_cache,
    structure_signature,
)

__all__ = [
    "ThermalGrid",
    "Slab",
    "SlabKind",
    "AirPackage",
    "ThermalParams",
    "RCNetwork",
    "build_network",
    "SteadyStateSolver",
    "TransientSolver",
    "KrylovSteadySolver",
    "KrylovTransientSolver",
    "NeighborFactorCache",
    "KRYLOV_TOLERANCE",
    "KRYLOV_TEMPERATURE_TOLERANCE",
    "KRYLOV_MAX_ITERATIONS",
    "clear_neighbor_cache",
    "structure_signature",
]
