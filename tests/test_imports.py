"""A process that only plans never loads SciPy: `smlr.oracle` is the one
module that needs it, and it loads only where the grid oracle is used."""

import os
import subprocess
import sys
from pathlib import Path

import smlr

SRC = Path(smlr.__file__).resolve().parents[1]

PROBE = """
import contextlib, io, sys
import smlr
from smlr import cli

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "smlr.oracle")

for path in smlr.shipped_scenarios():
    smlr.load_scenario(path)
print(heavy())
path = smlr.scenario.shipped_scenario_dir() / "square_wall_feasible.yaml"
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["plan", "--scenario", str(path), "--seed", "1"])
print(code, heavy())
from smlr import oracle
print("scipy" in sys.modules, "smlr.oracle" in sys.modules)
"""


def test_planning_process_does_not_import_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # after loading every shipped scenario, then after `smlr plan`, then
    # once the oracle is imported on purpose
    assert run.stdout.splitlines() == ["[]", "0 []", "True True"]
