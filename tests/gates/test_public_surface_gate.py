"""The public-surface gate: every public def in ``src/repro`` is used.

A public module-level function or class, or a public method of a public
class, that no program path names is code only the tests reach: the
simulator, the figures, the CLI and the benchmark never run it. The
scan looks for each def's name in ``src/``, ``examples/``,
``benchmarks/``, ``perfbench/`` and the CI workflow. Imports and
``__all__`` in ``__init__.py`` files (re-exports) do not count, nor
does the def's own line. It matches names only, so a name that also
appears in prose or in an unrelated call counts as referenced: the
gate catches defs whose name appears nowhere, not every dead def.

A def the scan finds stays only if :data:`KEEP` lists it with a
one-line reason. A keep-list entry the scan no longer finds is stale
and fails too, so the list shrinks with the code.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS_DIRS = ("src", "examples", "benchmarks", "perfbench")
CI_WORKFLOW = Path(".github/workflows/ci.yml")
_WORD = re.compile(r"[A-Za-z_]\w*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

KEEP = {
    "PowerModel.core_power":
        "tests/naive_power.py, the bitwise power oracle, calls it",
    "PowerModel.l2_bank_power":
        "tests/naive_power.py, the bitwise power oracle, calls it",
    "LeakageModel.unit_leakage":
        "tests/naive_power.py, the bitwise power oracle, calls it",
    "ThermalGrid.die_slab_indices":
        "tests/naive_thermal.py, the thermal hot-path oracle, calls it",
    "ThermalGrid.cavity_slab_indices":
        "the analytic-oracle agreement test reads the coolant outlets through it",
    "MicrochannelModel.convective_resistance_area":
        "Eq. 6/7 term; tests/analytic_cell.py, the unit-cell oracle, calls it",
    "MicrochannelModel.r_heat":
        "Eq. 5 term; tests/analytic_cell.py, the unit-cell oracle, calls it",
    "MicrochannelModel.cavity_heat_capacity_rate":
        "Eq. 4/5 capacity rate; tests/analytic_cell.py, the unit-cell oracle, calls it",
    "Forecaster":
        "a typing Protocol: a type declaration that nothing instantiates",
    "ThermalWeights.as_dict":
        "read-only accessor that tests use to observe TALB weights",
    "CoreQueues.total_threads":
        "read-only accessor that tests use to observe scheduler queues",
    "UtilizationTrace.mean_utilization":
        "read-only accessor that tests use to observe a utilization trace",
    "ThermalGrid.unit_temperature":
        "read-only accessor that tests use to observe one unit's temperature",
}


def _public_defs(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(qualified name, name, line)`` of every public module-level
    function and class, and every public method of a public class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _FUNCTIONS) and not sub.name.startswith("_"):
                    found.append((f"{node.name}.{sub.name}", sub.name, sub.lineno))
    return found


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of an ``__init__.py``'s imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if isinstance(node, (ast.Import, ast.ImportFrom)) or any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def unreferenced_public_defs(root: Path) -> dict[str, str]:
    """Public defs under ``root/src/repro`` whose name the corpus under
    ``root`` never mentions, as ``{qualified name: "path:line"}``."""
    package = root / "src" / "repro"
    words: Counter[str] = Counter()
    own_lines: Counter[str] = Counter()  # occurrences on the defs' own lines
    defs = []
    paths = [p for d in CORPUS_DIRS for p in sorted((root / d).rglob("*.py"))]
    if (root / CI_WORKFLOW).exists():
        paths.append(root / CI_WORKFLOW)
    for path in paths:
        text = path.read_text()
        lines = text.splitlines()
        skip: set[int] = set()
        if path.suffix == ".py":
            tree = ast.parse(text)
            if path.name == "__init__.py":
                skip = _reexport_lines(tree)
            if package in path.parents:
                for qualified, name, line in _public_defs(tree):
                    defs.append((qualified, name, f"{path.relative_to(root)}:{line}"))
                    own_lines[name] += _WORD.findall(lines[line - 1]).count(name)
        for number, line in enumerate(lines, 1):
            if number not in skip:
                words.update(_WORD.findall(line))
    return {
        qualified: where
        for qualified, name, where in defs
        if words[name] <= own_lines[name]
    }


def test_every_unreferenced_public_def_is_kept():
    found = unreferenced_public_defs(ROOT)
    unlisted = sorted(f"{where} {name}" for name, where in found.items() if name not in KEEP)
    assert not unlisted, (
        "public defs no program path names (delete them, or add them to KEEP"
        " with a reason):\n" + "\n".join(unlisted)
    )


def test_keep_list_is_current():
    stale = sorted(set(KEEP) - set(unreferenced_public_defs(ROOT)))
    assert not stale, f"KEEP entries the scan no longer finds: {stale}"


def test_every_kept_def_has_a_one_line_reason():
    for name, reason in KEEP.items():
        assert reason.strip() and "\n" not in reason, name


def test_scan_catches_an_unreferenced_def(tmp_path):
    """``orphan`` is only re-exported; private and called defs pass."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.core import Model, orphan, used\n\n"
        '__all__ = ["Model", "orphan", "used"]\n'
    )
    (package / "core.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return used()\n\n\n"
        "def _hidden():\n    return 2\n\n\n"
        "class Model:\n    def fit(self):\n        return used()\n\n\n"
        "DEFAULT = Model().fit()\n"
    )
    assert unreferenced_public_defs(tmp_path) == {"orphan": "src/repro/core.py:5"}
