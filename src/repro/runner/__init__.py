"""Batch orchestration: run many simulations, serially or in parallel.

See :mod:`repro.runner.batch` for the design; the experiments layer
(:func:`repro.experiments.common.run_spec`), the sweep layer (and
through it the ``repro batch`` and ``repro sweep`` CLI commands), and
the distributed workers all route multi-run work through
:class:`BatchRunner`. It executes runs in a stable sort by thermal
signature (:func:`signature_groups`), so runs sharing one thermal
system reuse its networks and LUs back to back (their steady initial
fields are cached characterizations), and emits results in submission
order.
"""

from repro.runner.batch import (
    BatchRun,
    BatchRunner,
    ReducedRun,
    signature_groups,
    structural_signature,
    thermal_signature,
)

__all__ = [
    "BatchRunner",
    "BatchRun",
    "ReducedRun",
    "signature_groups",
    "structural_signature",
    "thermal_signature",
]
