"""The benchmark's correctness reference, checked in process: pass 0 of every
perfbench workload, at sizes tiny and full, through `qcx.cli.main`, against
the exit codes and numbers perfbench/reference.json records.  The perfbench
files are read here, never written."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qcx.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TOL = 1e-9  # perfbench/run.py's REFERENCE_TOL


def _load_workloads():
    """perfbench/workloads.py, imported from its file (perfbench is not a
    package); its dataclasses look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _report(text):
    """The key=value lines a qcx command prints, numbers parsed and "" read
    as None, as perfbench/run.py's parse_report reads them."""
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


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_pass_zero_matches_the_benchmark_reference(tmp_path, capsys, name, size):
    workload = WORKLOADS.WORKLOADS[name]
    paths = {}
    for scenario, doc in WORKLOADS.scenario_docs(workload, 0, 0, size).items():
        paths[scenario] = tmp_path / f"{scenario}.json"
        paths[scenario].write_text(json.dumps(doc), encoding="utf-8")
    for inv in workload.invocations:
        code = main([inv.command, "--scenario", str(paths[inv.scenario]),
                     *(flag.format(out=tmp_path / "out") for flag in inv.flags)])
        captured = capsys.readouterr()
        expected = REFERENCE[size][inv.key]
        assert code == expected["exit"], (inv.key, captured.err)
        values = _report(captured.out)
        for key, ref in expected["values"].items():
            if isinstance(ref, float):
                assert abs(values[key] - ref) <= TOL, (inv.key, key, values[key], ref)
            else:
                assert values[key] == ref, (inv.key, key, values[key], ref)
