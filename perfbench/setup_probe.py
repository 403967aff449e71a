"""What a `qcx` user pays before any number is computed, in a fresh interpreter.

    python3 perfbench/setup_probe.py SCENARIO.json [SCENARIO.json ...]

Imports qcx from the checkout's `src/`, parses each scenario and builds its
maps, companion and parameters.  run.py times whole invocations of this
script as the `setup_s` metric.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcx.cli import load_scenario, make_parser  # noqa: E402

for path in sys.argv[1:]:
    load_scenario(path, make_parser().parse_args(["check", "--scenario", path])).pieces()
