"""A process that only plans never loads SciPy: `smlr.oracle` is the one
module that needs it, and it loads only where the grid oracle is used.  Nor
does it load numpy.ma, which a plain `np.unique` imports on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smlr

SRC = Path(smlr.__file__).resolve().parents[1]

# after loading every shipped scenario and after `smlr plan`: the SciPy
# modules loaded, then on a line of its own whether numpy.ma is loaded beyond
# what a bare `import numpy` loads (a NumPy that imports it eagerly leaves
# nothing to check); last, what importing the oracle on purpose loads
PROBE = """
import contextlib, io, sys
import numpy
eager = "numpy.ma" in sys.modules
import smlr
from smlr import cli

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "smlr.oracle")

def masked():
    return "numpy.ma" in sys.modules and not eager

for path in smlr.shipped_scenarios():
    smlr.load_scenario(path)
print(heavy())
print(masked())
path = smlr.scenario.shipped_scenario_dir() / "square_wall_feasible.yaml"
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["plan", "--scenario", str(path), "--seed", "1"])
print(code, heavy())
print(masked())
from smlr import oracle
print("scipy" in sys.modules, "smlr.oracle" in sys.modules)
"""


@pytest.fixture(scope="module")
def probe() -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_planning_process_does_not_import_scipy(probe):
    assert probe[0::2] == ["[]", "0 []", "True True"]


def test_planning_process_does_not_import_numpy_ma(probe):
    assert probe[1::2] == ["False", "False"]
