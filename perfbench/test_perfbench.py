"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SAME_EVERY_RUN = ("maps.jet_calls", "branches.evals", "loewner.extension_evals",
                  "qcverify.stencil_evals")


def bench(workload, trace, seed=1, reference=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.cache
def result(workload, trace, seed=1):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert res["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_runs_separate_the_layers():
    values = {w: {k: m["value"] for k, m in result(w, 1)["metrics"].items()}
              for w in WORKLOADS}
    for w in ("disk_scan", "extend_verify"):
        assert values[w]["branches.calls.criteria"] == 0
        assert values[w]["branches.calls.loewner"] == 0
    for w in ("disk_scan", "tracked"):
        assert values[w]["cli.csv_bytes"] == 0
    assert values["tracked"]["branches.calls.criteria"] > 0
    assert values["tracked"]["branches.calls.loewner"] > 0
    assert values["extend_verify"]["cli.csv_bytes"] > 0
    assert all(v["parallel.threads"] == 1 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, again = result(workload, 1), bench(workload, 1)
    again = json.loads(again.stdout.splitlines()[-1])
    for name in SAME_EVERY_RUN:
        assert first["metrics"][name] == again["metrics"][name], name


def test_wrong_reference_value_is_a_failure(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["tiny"]["nw_poly:check"]["values"]["sup_value"] += 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = bench("disk_scan", 0, reference=path)
    res = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert not res["correct"] and res["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("disk_scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
