"""The public-surface gate: every public def in ``src/repro`` is used.

A public module-level function or class, or a public method of a public
class, that no program path names is code only the tests reach: the
simulator, the figures, the CLI and the benchmark never run it. The
scan looks for each def's name in the code of ``src/``, ``examples/``,
``benchmarks/``, ``perfbench/`` and the CI workflow. It parses each
Python file and counts a name only where code uses it:

- ``Name`` and ``Attribute`` nodes, import aliases and keyword-argument
  names;
- quoted annotations, parsed as expressions;
- string constants that are a whole identifier or dotted path, such as
  ``getattr(obj, "on_interval")`` or perfbench's ``TARGETS`` entries;
- the workflow's lines outside ``#`` comments.

Docstrings, comments, prose strings (a ``help=`` text that mentions a
name), ``__all__`` anywhere and the imports of ``__init__.py`` files
(re-exports) do not count, nor does the ``def`` or ``class`` statement
itself. The scan matches names only, so a name an unrelated call also
uses counts as referenced: the gate catches defs no code names, not
every dead def. The rule reads the AST, so it is the same on Python
3.10 to 3.12, whose tokenizers split f-strings differently; f-string
fragments are string constants on all of them.

A def the scan finds stays only if :data:`KEEP` lists it with a
one-line reason. A keep-list entry the scan no longer finds is stale
and fails too, so the list shrinks with the code.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS_DIRS = ("src", "examples", "benchmarks", "perfbench")
CI_WORKFLOW = Path(".github/workflows/ci.yml")
_WORD = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_YAML_COMMENT = re.compile(r"(^|\s)#.*")
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
    "FlowController":
        "a typing Protocol: README's interface for a registered controller",
    "SchedulerPolicy":
        "a typing Protocol: README's interface for a registered policy",
    "WorkloadModel":
        "a typing Protocol: README's interface for a registered workload model",
    "FacilityModel":
        "a typing Protocol: the interface a registered facility's model implements",
    "load_result":
        "the golden-run pins read their recorded results through it; inverse of --save-json",
    "ThermalWeights.as_dict":
        "read-only accessor that tests use to observe TALB weights",
    "CoreQueues.total_threads":
        "read-only accessor that tests use to observe scheduler queues",
    "UtilizationTrace.mean_utilization":
        "read-only accessor that tests use to observe a utilization trace",
    "ThermalGrid.unit_temperature":
        "read-only accessor that tests use to observe one unit's temperature",
    "ThermalGrid.unit_cells":
        "read-only accessor; the vector-equivalence tests compare it with the naive oracle",
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


def _not_code(node: ast.AST, reexports: bool) -> bool:
    """Whether ``node`` and what it holds name nothing: a bare string
    statement (a docstring), an ``__all__`` assignment or, with
    ``reexports``, an import."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = getattr(node, "targets", None) or [node.target]
        return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
    return reexports and isinstance(node, (ast.Import, ast.ImportFrom))


def _quoted_annotation(node: ast.AST) -> str | None:
    """The text of ``node``'s annotation (or return annotation) if quoted."""
    field = "returns" if isinstance(node, _FUNCTIONS) else "annotation"
    annotation = getattr(node, field, None)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return None


def code_names(tree: ast.AST, reexports: bool = False) -> set[str]:
    """Every name the code in ``tree`` uses; with ``reexports`` (an
    ``__init__.py``), its imports are re-exports and do not count."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _not_code(node, reexports):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
        quoted = _quoted_annotation(node)
        if quoted:
            names |= code_names(ast.parse(quoted, mode="eval"))
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_public_defs(root: Path) -> dict[str, str]:
    """Public defs under ``root/src/repro`` whose name no code in the
    corpus under ``root`` uses, as ``{qualified name: "path:line"}``."""
    package = root / "src" / "repro"
    used: set[str] = set()
    defs = []
    for path in (p for d in CORPUS_DIRS for p in sorted((root / d).rglob("*.py"))):
        tree = ast.parse(path.read_text())
        used |= code_names(tree, reexports=path.name == "__init__.py")
        if package in path.parents:
            for qualified, name, line in _public_defs(tree):
                defs.append((qualified, name, f"{path.relative_to(root)}:{line}"))
    if (root / CI_WORKFLOW).exists():
        for line in (root / CI_WORKFLOW).read_text().splitlines():
            used.update(_WORD.findall(_YAML_COMMENT.sub("", line)))
    return {qualified: where for qualified, name, where in defs if name not in used}


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
    """``orphan`` is only re-exported and the ``in_*`` defs are named
    only in prose; private defs and the defs code or the workflow's
    commands name pass."""
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
        "DEFAULT = Model().fit()\n\n\n"
        "def in_docstring():\n    return 3\n\n\n"
        "def in_comment():\n    return 4\n\n\n"
        "def in_help():\n    return 5\n\n\n"
        "def in_ci_comment():\n    return 6\n\n\n"
        "def by_getattr():\n    return 7\n\n\n"
        "def by_annotation():\n    return 8\n\n\n"
        "def by_fstring():\n    return 9\n"
    )
    (package / "cli.py").write_text(
        '"""The CLI; in_docstring is mentioned here only."""\n\n'
        "import argparse\n\n"
        "from repro import core\n\n"
        '__all__ = ["main", "orphan"]\n\n\n'
        'def _note():\n    """in_docstring"""\n\n\n'
        "def main(x: \"list[core.by_annotation]\") -> str:\n"
        "    # in_comment is mentioned here only\n"
        "    parser = argparse.ArgumentParser()\n"
        '    parser.add_argument("--n", help="runs in_help once")\n'
        '    getattr(core, "by_getattr")()\n'
        '    return f"{core.by_fstring()} in_help"\n'
    )
    workflow = tmp_path / CI_WORKFLOW
    workflow.parent.mkdir(parents=True)
    workflow.write_text(
        "jobs:\n  test:\n    steps:\n"
        "      # in_ci_comment is mentioned here only\n"
        "      - run: python -c 'from repro.cli import main; main()'  # in_ci_comment\n"
    )
    assert unreferenced_public_defs(tmp_path) == {
        "orphan": "src/repro/core.py:5",
        "in_docstring": "src/repro/core.py:21",
        "in_comment": "src/repro/core.py:25",
        "in_help": "src/repro/core.py:29",
        "in_ci_comment": "src/repro/core.py:33",
    }
