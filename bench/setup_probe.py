"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/setup_probe.py REPO_ROOT CONFIG.json [CONFIG.json ...]

Imports ergodim from REPO_ROOT/src, passes every config through
``ExperimentConfig.from_dict`` and prints one JSON line with the in-process
import time.  The parent times the whole interpreter start up to that line.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
import ergodim  # noqa: E402,F401
from ergodim.harness import ExperimentConfig  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[2:]:
    ExperimentConfig.from_dict(json.loads(Path(path).read_text()))
print(json.dumps({"import_s": t1 - t0}), flush=True)
