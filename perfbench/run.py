"""Benchmark of the `qcx` command line: check, extend and beltrami.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, serial, closed loop with a
single caller: every `qcx` invocation runs in-process through
`qcx.cli.main` and starts when the previous one returns, with QCX_THREADS=1.
A pass runs every invocation of the workload once (see workloads.py).  Pass
0 runs the unperturbed scenarios untimed and compares exit codes and report
numbers with reference.json; timed passes follow until --seconds is spent.

Every timed metric is scaled to a reference host speed with a host probe
run next to each timed interval (see host_probe).  With --trace 0 the last
line of output holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run (tracing.py).  The line
before it holds the details: sample counts, tail percentiles, per-command
times, the environment and a host-speed calibration.  The exit code is 0
when every invocation gave its expected verdict, 1 otherwise.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, scenario_docs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

COMMANDS = ("check", "extend", "beltrami")
REFERENCE_TOL = 1e-9
SETUP_PROBES = 15  # fresh interpreters a run, spread evenly over the timed passes
HOST_PROBE_STEPS = 6000
# Host-probe seconds that define the reference host speed.  Every timed
# metric is wall time scaled by HOST_PROBE_REF_S / (probe time around it).
# Changing either constant changes every timed metric: leave both alone.
HOST_PROBE_REF_S = 0.005
TRACED_PASS_OFFSET = 100_000  # traced passes get their own inputs, independent of timing

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cmd.check_s": "s", "cmd.extend_s": "s", "cmd.beltrami_s": "s",
    "cli.parse_s": "s", "cli.csv_self_s": "s", "cli.csv_bytes": "bytes",
    "svg.write_s": "s",
    "criteria.self_s": "s", "criteria.precheck_s": "s", "criteria.samples": "count",
    "maps.jet_calls": "count", "udisk.calls": "count",
    "branches.calls.criteria": "count", "branches.calls.loewner": "count",
    "branches.evals": "count", "branches.pass_efficiency": "ratio",
    "branches.max_steps": "count", "branches.self_s": "s",
    "loewner.validate_self_s": "s", "loewner.ratio_evals": "count",
    "loewner.extension_evals": "count", "loewner.extension_self_s": "s",
    "loewner.continuity_s": "s",
    "qcverify.self_s": "s", "qcverify.stencil_evals": "count",
    "qcverify.flagged": "count", "qcverify.skipped": "count",
    "sector.jet_calls": "count", "sector.self_s": "s",
    "parallel.items": "count", "parallel.threads": "count",
    "trace.overhead_ratio": "ratio",
}


def load_qcx():
    """Import qcx from this checkout's src/, never from an installed copy."""
    if not (SRC / "qcx" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcx source at {SRC / 'qcx'}; "
                         "run from the root of a qcx checkout")
    sys.path.insert(0, str(SRC))
    import qcx
    import qcx.cli

    if Path(qcx.__file__).resolve().parent != (SRC / "qcx").resolve():
        raise SystemExit(f"error: imported qcx from {qcx.__file__}, not {SRC}")
    return qcx


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reading."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


class _Pair:
    """A value with a derivative, multiplied like qcx's jets."""
    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        self.a, self.b = a, b

    def __mul__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def host_probe() -> float:
    """Seconds for a fixed few-millisecond loop of small-object complex arithmetic.

    The host's speed drifts by up to a factor of two over seconds to
    minutes, and the time of a qcx invocation follows the time of this
    probe run next to it.  The probe uses no qcx code, so it does not move
    when qcx gets faster or slower.
    """
    start = time.perf_counter()
    z, w = _Pair(0.5 + 0.1j, 1.0), _Pair(1.0001 + 0.0001j, 0.3)
    for _ in range(HOST_PROBE_STEPS):
        z = z * w
        z = _Pair(cmath.exp(z.a * 1e-3), z.b * 0.5)
    return time.perf_counter() - start


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """Wall seconds scaled to the reference host speed."""
    return seconds * 2 * HOST_PROBE_REF_S / (probe_before + probe_after)


def timing_stats(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    stats = {"median": statistics.median(ordered), "n": n, "samples": values}
    if n > 10:
        stats["tail"] = {"percentile": math.floor(100 * (n - 10) / n),
                         "value": ordered[n - 11]}
    return stats


def parse_report(text: str) -> dict:
    """The key=value lines a qcx command prints, numbers parsed, "" as None."""
    values = {}
    for line in text.splitlines():
        key, sep, raw = line.partition("=")
        if not sep:
            continue
        try:
            values[key] = float(raw) if raw else None
        except ValueError:
            values[key] = raw
    return values


class Runner:
    """Runs passes of one workload in-process and checks every invocation."""

    def __init__(self, workload, seed: int, size: str, work: Path,
                 reference: dict, qcx_main):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.out = work / "out"
        self.reference = reference
        self.main = qcx_main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.paths: dict[str, str] = {}  # scenario files of the latest pass

    def write_docs(self, pass_index: int) -> None:
        for name, doc in scenario_docs(self.workload, self.seed, pass_index,
                                       self.size).items():
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[name] = str(path)

    def run_pass(self, pass_index: int) -> tuple[dict[str, float], dict[str, float]]:
        """Run every invocation once.

        Returns wall seconds per command, and the same scaled to the
        reference host speed with a host probe before and after each
        invocation, outside its timed interval.
        """
        self.write_docs(pass_index)
        paths = self.paths
        seconds = dict.fromkeys(COMMANDS, 0.0)
        at_ref = dict.fromkeys(COMMANDS, 0.0)
        probe = host_probe()
        for inv in self.workload.invocations:
            argv = [inv.command, "--scenario", paths[inv.scenario],
                    *(flag.format(out=self.out) for flag in inv.flags)]
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.main(argv)
            except Exception as exc:  # a crash is a failed invocation, not a crashed run
                code, error = None, f"raised {exc!r}"
            wall = time.perf_counter() - start
            probe_before, probe = probe, host_probe()
            seconds[inv.command] += wall
            at_ref[inv.command] += scaled(wall, probe_before, probe)
            self.attempted += 1
            problem = error or self.check(inv, code, stdout.getvalue(),
                                          stderr.getvalue(), pass_index == 0)
            if problem:
                self.failed += 1
                self.problems.append(f"pass {pass_index} {inv.key}: {problem}")
        return seconds, at_ref

    def check(self, inv, code, out: str, err: str, exact: bool) -> str | None:
        values = parse_report(out)
        expected = self.reference[inv.key]
        if code != expected["exit"]:
            return f"exit {code}, expected {expected['exit']} {err.strip()}"
        for key, ref in expected["values"].items():
            if key not in values:
                return f"{key} missing from the report"
            got = values[key]
            if not (isinstance(got, float) and isinstance(ref, float)):
                if got != ref:
                    return f"{key}={got!r}, reference {ref!r}"
            elif exact and not abs(got - ref) <= REFERENCE_TOL:
                return f"{key}={got!r}, reference {ref!r} (tolerance {REFERENCE_TOL})"
            elif not math.isfinite(got):
                return f"{key}={got!r} is not finite"
        return None


def probe_setup(paths: list[str]) -> tuple[float, float]:
    """Seconds of a fresh interpreter that imports qcx and builds the scenarios.

    Returns the wall time and the same scaled to the reference host speed.
    """
    probe_before = host_probe()
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *paths],
                   check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return wall, scaled(wall, probe_before, host_probe())


def timed_passes(runner: Runner, first_index: int, budget: float,
                 on_pass=None) -> list[tuple[dict[str, float], dict[str, float]]]:
    """Passes until the next one would overrun the budget; at least one.

    `on_pass(elapsed)` runs after each pass; its time counts against the budget.
    """
    passes = []
    start = time.perf_counter()
    index = first_index
    while True:
        passes.append(runner.run_pass(index))
        if on_pass is not None:
            on_pass(time.perf_counter() - start)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "QCX_THREADS": os.environ["QCX_THREADS"],
        "platform": platform.platform(),
    }


def run_workload(args) -> int:
    os.environ["QCX_THREADS"] = "1"
    qcx = load_qcx()
    workload = WORKLOADS[args.workload]
    reference = json.loads(Path(args.reference).read_text())[args.size]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, args.size, work, reference, qcx.cli.main)
        calibration = {"start_s": calibrate()}
        runner.run_pass(0)  # unperturbed: reference check and warm-up, untimed

        threads = qcx.parallel.thread_count()
        if threads != 1:
            runner.failed += 1
            runner.problems.append(f"parallel.threads = {threads}, must be 1")

        details: dict = {}
        if args.trace:
            metrics = traced_run(args, runner, workload.name, details)
            metrics["parallel.threads"] = threads
            units = PER_LAYER
        else:
            setup: list[tuple[float, float]] = []

            def probe_due(elapsed: float) -> None:
                """Probe set-up at evenly spaced times, so it sees the host as the passes do."""
                while len(setup) < SETUP_PROBES * min(1.0, elapsed / args.seconds):
                    setup.append(probe_setup(list(runner.paths.values())))

            passes = timed_passes(runner, 1, args.seconds, probe_due)
            probe_due(args.seconds)
            at_ref = [ref for _, ref in passes]
            setup_at_ref = [ref for _, ref in setup]
            totals = [sum(p.values()) for p in at_ref]
            details["timings"] = {
                "setup_s": timing_stats(setup_at_ref),
                "pass_s": timing_stats(totals),
                **{f"{cmd}_s": timing_stats([p[cmd] for p in at_ref])
                   for cmd in COMMANDS if any(p[cmd] for p in at_ref)},
                "wall_setup_s": timing_stats([wall for wall, _ in setup]),
                "wall_pass_s": timing_stats([sum(wall.values()) for wall, _ in passes]),
            }
            metrics = {
                "setup_s": statistics.median(setup_at_ref),
                "pass_s": statistics.median(totals),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        calibration["end_s"] = calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = runner.failed == 0
    details.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "failed_ratio": runner.failed / runner.attempted,
        "problems": runner.problems[:20],
        "calibration": calibration,
        "environment": environment(),
    })
    timings = details.get("timings", {})
    rows = [(name, metrics[name], unit) for name, unit in units.items()]
    rows += [(name, stats["median"], "s") for name, stats in timings.items()
             if name not in units]
    for name, value, unit in rows:
        stats = timings.get(name, {})
        tail = stats.get("tail")
        print(f"{workload.name:14s} {name:26s} {value:14.6g} {unit:6s}"
              + (f" n={stats['n']}" if stats else "")
              + (f" p{tail['percentile']}={tail['value']:.6g}" if tail else ""))
    print(f"{workload.name:14s} {'failed_ratio':26s} {details['failed_ratio']:14.6g} ratio"
          f"  ({runner.failed} of {runner.attempted} invocations)")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def traced_run(args, runner: Runner, workload: str, details: dict) -> dict:
    """Untraced passes for half the time, then traced passes in the same process.

    Times are medians over traced passes; counts come from the first traced
    pass, whose inputs depend only on the seed.
    """
    from tracing import Tracer

    plain = timed_passes(runner, 1, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    per_pass = []

    def collect(_elapsed):
        per_pass.append(tracer.pass_metrics())
        tracer.reset()
        tracer.pass_id += 1

    tracer.pass_id = TRACED_PASS_OFFSET
    traced = timed_passes(runner, TRACED_PASS_OFFSET, args.seconds / 2, collect)
    tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path, workload)

    metrics = {}
    for name, value in per_pass[0].items():
        if PER_LAYER[name] == "s":
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = value
    for cmd in COMMANDS:
        metrics[f"cmd.{cmd}_s"] = statistics.median(p[cmd] for _, p in plain)
    plain_totals = [sum(p.values()) for _, p in plain]
    traced_totals = [sum(p.values()) for _, p in traced]
    metrics["trace.overhead_ratio"] = (statistics.median(traced_totals)
                                       / statistics.median(plain_totals))
    details["timings"] = {"untraced_pass_s": timing_stats(plain_totals),
                          "traced_pass_s": timing_stats(traced_totals)}
    details["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                        "count": len(tracer.spans)}
    return metrics


def run_all(args) -> int:
    """Every workload in its own process; a table of all metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--reference", str(args.reference)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + "\n")
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every grid, for the smoke test")
    parser.add_argument("--reference", default=str(REFERENCE))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
