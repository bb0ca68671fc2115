"""What every ``acsa run`` pays before its first request, in a fresh
interpreter: import the CLI, then for each cell validate the config,
load the split and build every request.

Usage: python3 perfbench/setup_child.py CELLS_JSON
Prints the number of requests built.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import acsa_harness.cli  # noqa: E402,F401
from acsa_harness import runner  # noqa: E402
from workloads import load_split  # noqa: E402

n_jobs = 0
for cell in json.loads(Path(sys.argv[1]).read_text("utf-8")):
    config = runner.RunConfig.from_mapping(cell)
    config.validate()
    n_jobs += len(runner.prepare_jobs(config, load_split(config)))
print(n_jobs)
