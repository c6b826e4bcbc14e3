"""3D stack descriptions (dies, cavities, channel counts).

A stack is an alternating sequence, bottom to top::

    cavity0 | die0 | cavity1 | die1 | ... | dieN-1 | cavityN

matching the paper's "there are cooling layers on the very top and the
bottom of the stacks": an N-die stack has N+1 cavities, so the 2-layer
system has 3 cavities (195 channels / 65 per cavity) and the 4-layer
system has 5 cavities (325 channels).

For air-cooled variants the cavities degenerate to thin interlayer
material (0.02 mm, Table III) and a conventional package (heat spreader
plus sink with the Table III convection resistance/capacitance) is
attached on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.constants import STACK
from repro.errors import GeometryError
from repro.geometry.floorplan import Floorplan, UnitKind, t1_cache_layer, t1_core_layer


class CoolingKind(Enum):
    """How the stack is cooled."""

    LIQUID = "liquid"
    AIR = "air"


@dataclass(frozen=True)
class Die:
    """One active silicon tier of the stack.

    Core layers carry the cores (and the thermal sensors on them); the
    cache layers carry L2 banks instead.
    """

    floorplan: Floorplan
    thickness: float = STACK.die_thickness


@dataclass(frozen=True)
class Stack3D:
    """A complete 3D stack: dies plus cooling configuration.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"2-layer"``.
    dies:
        Bottom-to-top active tiers.
    cooling:
        Liquid (interlayer microchannels) or air (conventional package).
    """

    name: str
    dies: tuple[Die, ...]
    cooling: CoolingKind

    def __post_init__(self) -> None:
        if not self.dies:
            raise GeometryError("a stack needs at least one die")
        widths = {d.floorplan.width for d in self.dies}
        heights = {d.floorplan.height for d in self.dies}
        if len(widths) != 1 or len(heights) != 1:
            raise GeometryError("all dies in a stack must have identical outlines")

    @property
    def n_dies(self) -> int:
        """Number of active tiers."""
        return len(self.dies)

    @property
    def n_cavities(self) -> int:
        """Number of coolant cavities (N+1 for N dies, liquid cooling only)."""
        if self.cooling is CoolingKind.AIR:
            return 0
        return self.n_dies + 1

    @property
    def width(self) -> float:
        """Die outline width (x, the channel flow direction), m."""
        return self.dies[0].floorplan.width

    @property
    def height(self) -> float:
        """Die outline height (y), m."""
        return self.dies[0].floorplan.height

    def core_names(self) -> list[str]:
        """Names of every core unit, bottom die first."""
        names: list[str] = []
        for die in self.dies:
            for unit in die.floorplan.units_of_kind(UnitKind.CORE):
                names.append(unit.name)
        return names


def build_stack(n_layers: int, cooling: CoolingKind = CoolingKind.LIQUID) -> Stack3D:
    """Build the paper's 2- or 4-layer UltraSPARC T1-based stack.

    The paper separates cores and caches onto different tiers ("a
    preferred design scenario for shortening wires"): the 2-layer system
    is (cores, caches) and the 4-layer system is (cores, caches, cores,
    caches), bottom to top, for 8 and 16 cores respectively.

    Parameters
    ----------
    n_layers:
        2 or 4.
    cooling:
        Interlayer liquid cooling (default) or a conventional air package.
    """
    if n_layers == 2:
        dies = (
            Die(t1_core_layer("t1-cores-0", core_offset=0)),
            Die(t1_cache_layer("t1-caches-0", l2_offset=0)),
        )
    elif n_layers == 4:
        dies = (
            Die(t1_core_layer("t1-cores-0", core_offset=0)),
            Die(t1_cache_layer("t1-caches-0", l2_offset=0)),
            Die(t1_core_layer("t1-cores-1", core_offset=8)),
            Die(t1_cache_layer("t1-caches-1", l2_offset=4)),
        )
    else:
        raise GeometryError(f"only 2- and 4-layer stacks are defined, got {n_layers}")
    return Stack3D(name=f"{n_layers}-layer", dies=dies, cooling=cooling)
