"""Serial evaluation, kept under the names the benchmark harness reads.

Every stage evaluates numpy blocks one after another.  `perfbench/run.py`
fails a run whose `thread_count()` is not 1, and its tracer counts the items
through `ordered_map` in `criteria`, `loewner` and `qcverify`; the benchmark
change that stops reading these names (ROADMAP item 2) removes this module.
"""

from __future__ import annotations


def thread_count() -> int:
    return 1


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], in input order."""
    return [fn(x) for x in items]
