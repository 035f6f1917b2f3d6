"""Per-cell study execution: the oracle of the lockstep study executor.

:class:`PerCellExecutor` runs every task on its own through
:func:`~repro.analysis.study.execute_task` — each dynamic cell a batch of
one.  ``StudyExecutor`` must return exactly equal results for any
``max_workers``, whichever runs share a lockstep batch.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.analysis.study import StudyTask, execute_task


class PerCellExecutor:
    """Executes each study task on its own, in order, in the calling process."""

    def run_tasks(self, tasks: Sequence[StudyTask]) -> List[Any]:
        """Execute *tasks* one by one and return their results in order."""
        return [execute_task(task) for task in tasks]
