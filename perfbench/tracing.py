"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each qcx layer from outside the
package, on the name each caller looks up: the code uses `from .x import y`,
so `qcx.criteria.tracked_log` and `qcx.loewner.tracked_log` are wrapped, not
only `qcx.branches.tracked_log`.  Boundaries that run a few thousand times a
pass get spans (name, start, end, parent, pass id), kept in memory and
written out when the run ends.  Boundaries that run millions of times, such
as `.jet()`, only count, so a layer's self time includes the jets it
evaluates.  Extension and sector-map evaluations, some 10^5 a pass, are
timed like spans but not kept as span records, which bounds the memory the
trace holds.  A span's self time is its duration minus the time of the
timed calls it encloses.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from collections import defaultdict


def _classes_defining(module, attr: str):
    """Classes defined in `module` whose own namespace holds `attr`."""
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and attr in vars(obj)]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id or -1, name, start, end, pass id)
        self.pass_id = 0
        self._stack: list[list] = []   # [span id, seconds covered by timed children]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start the per-pass accumulators afresh."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_steps = 0

    # -- wrapper factories ---------------------------------------------------

    def _span(self, name: str, after=None, record: bool = True):
        def make(fn):
            stack, spans, clock = self._stack, self.spans, time.perf_counter

            def wrapper(*args, **kwargs):
                parent = stack[-1][0] if stack else -1
                span_id = parent  # an unrecorded call lends its parent to its children
                if record:
                    span_id = self._next_id
                    self._next_id += 1
                frame = [span_id, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    self.self_s[name] += duration - frame[1]
                    self.total_s[name] += duration
                    if stack:
                        stack[-1][1] += duration
                    if record:
                        spans.append((span_id, parent, name, start, end,
                                       self.pass_id))
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapper
        return make

    def _count(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _branch_evals(self, fn):
        """Wrap tracked_log(fn, z, anchor, ...) to count evaluations of fn.

        Within one attempt tracked_log samples z*j/n for rising j, so |w|
        rises; a restart with doubled n starts below the last |w|.  The
        evaluations since the last restart form the accepted pass.
        """
        def wrapper(tracked_fn, *args, **kwargs):
            attempt = [0, -1.0]   # evaluations in this attempt, last |w|

            def counted(w):
                r = abs(w)
                if r < attempt[1]:
                    attempt[0] = 0
                attempt[1] = r
                attempt[0] += 1
                self.counts["branches.evals"] += 1
                return tracked_fn(w)

            result = fn(counted, *args, **kwargs)
            self.counts["branches.accepted_evals"] += attempt[0]
            self.max_steps = max(self.max_steps, attempt[0])
            return result
        return wrapper

    def _stencil_evals(self, fn):
        def wrapper(f, *args, **kwargs):
            def counted(w):
                self.counts["qcverify.stencil_evals"] += 1
                return f(w)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _items(self, fn):
        def wrapper(f, items):
            items = list(items)
            self.counts["parallel.items"] += len(items)
            return fn(f, items)
        return wrapper

    # -- callbacks on returned values ------------------------------------------

    def _samples(self, result, *args, **kwargs):
        report = result[0] if isinstance(result, tuple) else result
        self.counts["criteria.samples"] += report.samples

    def _csv_bytes(self, result, path, *args, **kwargs):
        self.counts["cli.csv_bytes"] += os.path.getsize(path)

    def _stencil_outcomes(self, estimate, *args, **kwargs):
        self.counts["qcverify.flagged"] += len(estimate.flagged)
        self.counts["qcverify.skipped"] += len(estimate.skipped)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, *makes) -> None:
        original = vars(owner)[attr]
        wrapped = original
        for make in reversed(makes):
            wrapped = make(wrapped)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapped))

    def install(self) -> None:
        from qcx import branches, cli, criteria, loewner, maps, qcverify, sector

        span, count, patch = self._span, self._count, self._patch
        patch(cli, "load_scenario", span("cli.parse"))
        patch(cli.Scenario, "pieces", span("cli.parse"))
        patch(cli, "write_csv", span("cli.csv", after=self._csv_bytes))
        patch(cli, "write_heatmap_svg", span("svg.write"))
        patch(cli, "evaluate_criterion", span("criteria", after=self._samples))
        patch(cli, "validate_chain", span("loewner.validate"))

        for name in ("check_starlike", "_image_avoids", "_sector_contains_image"):
            patch(criteria, name, span("criteria.precheck"))
        for module, caller in ((criteria, "criteria"), (loewner, "loewner")):
            patch(module, "tracked_log", span("branches"),
                  count(f"branches.calls.{caller}"), self._branch_evals)
            patch(module, "u_disk_margin", count("udisk.calls"))
        patch(criteria, "tracked_ratio_log", span("branches"),
              count("branches.calls.criteria"))
        # tracked_ratio_log builds its function internally and calls this name
        patch(branches, "tracked_log", self._branch_evals)
        patch(criteria, "u_disk_ratio", count("udisk.calls"))
        for module in (criteria, loewner, qcverify):
            patch(module, "ordered_map", self._items)

        patch(loewner.ExtensionMap, "__call__",
              span("loewner.extension", record=False),
              count("loewner.extension_evals"))
        patch(loewner.ExtensionMap, "continuity_gap", span("loewner.continuity"))
        for cls in _classes_defining(loewner, "transition_ratio"):
            patch(cls, "transition_ratio", count("loewner.ratio_evals"))

        patch(qcverify, "beltrami_on_grid",
              span("qcverify", after=self._stencil_outcomes))
        patch(qcverify, "wirtinger", self._stencil_evals)

        for module in (maps, sector):
            for cls in _classes_defining(module, "jet"):
                makes = [count("maps.jet_calls")]
                if cls is sector.SectorPowerMap:
                    makes = [span("sector.jet", record=False),
                             count("sector.jet_calls")] + makes
                patch(cls, "jet", *makes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last reset()."""
        c, own, total = self.counts, self.self_s, self.total_s
        evals = c["branches.evals"]
        return {
            "cli.parse_s": total["cli.parse"],
            "cli.csv_self_s": own["cli.csv"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "svg.write_s": total["svg.write"],
            "criteria.self_s": own["criteria"],
            "criteria.precheck_s": total["criteria.precheck"],
            "criteria.samples": c["criteria.samples"],
            "maps.jet_calls": c["maps.jet_calls"],
            "udisk.calls": c["udisk.calls"],
            "branches.calls.criteria": c["branches.calls.criteria"],
            "branches.calls.loewner": c["branches.calls.loewner"],
            "branches.evals": evals,
            # base: branches.evals; with no evaluation nothing was wasted
            "branches.pass_efficiency":
                c["branches.accepted_evals"] / evals if evals else 1.0,
            "branches.max_steps": self.max_steps,
            "branches.self_s": own["branches"],
            "loewner.validate_self_s": own["loewner.validate"],
            "loewner.ratio_evals": c["loewner.ratio_evals"],
            "loewner.extension_evals": c["loewner.extension_evals"],
            "loewner.extension_self_s": own["loewner.extension"],
            "loewner.continuity_s": total["loewner.continuity"],
            "qcverify.self_s": own["qcverify"],
            "qcverify.stencil_evals": c["qcverify.stencil_evals"],
            "qcverify.flagged": c["qcverify.flagged"],
            "qcverify.skipped": c["qcverify.skipped"],
            "sector.jet_calls": c["sector.jet_calls"],
            "sector.self_s": own["sector.jet"],
            "parallel.items": c["parallel.items"],
        }

    def write_spans(self, path, workload: str) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,workload,pass\n")
            for span_id, parent, name, start, end, pass_id in self.spans:
                fh.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f},"
                         f"{workload},{pass_id}\n")
