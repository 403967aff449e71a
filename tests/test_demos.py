"""The scripts in demos/ run to completion and print their reports.

Each demo runs in a fresh interpreter from a copy in a temporary directory,
so demo 03's SVG heat map lands there, with RuntimeWarnings turned into
errors as in the test suite."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one line of each demo's report
DEMOS = {
    "01_univalence_criteria.py": "f = p = koebe, s = 1 ",
    "02_chains_and_extensions.py": "chain conditions satisfied: True",
    "03_beltrami_measurement.py": "stable under step halving   : True",
    "04_sector_maps.py": "restriction to the disk returns the original map: True",
}


def test_every_demo_is_covered():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert DEMOS[name] in run.stdout
