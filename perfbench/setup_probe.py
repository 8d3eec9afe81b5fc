"""Time one fresh set-up: import smlr and load the given scenario files.

Usage: python3 setup_probe.py SRC_DIR SCENARIO.yaml...  Prints the seconds
taken.  run.py starts it several times and reports the median as setup_s.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import smlr  # noqa: E402

if src not in Path(smlr.__file__).resolve().parents:
    sys.exit(f"smlr imported from {smlr.__file__}, not from {src}")
for path in sys.argv[2:]:
    smlr.load_scenario(path)
print(perf_counter() - t0)
