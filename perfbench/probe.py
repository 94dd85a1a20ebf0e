"""Time one cold set-up of a workload: ``python3 perfbench/probe.py <workload>``.

Run from the checkout root in a fresh interpreter, so the figure includes
interpreter start and imports.  Prints ``ready`` once set-up is done; the
parent times the interval from spawn to that line.
"""

import sys
from pathlib import Path

root = Path.cwd()
sys.path.insert(0, str(root / "src"))

import netsim_run  # noqa: E402
import sweep_fig4  # noqa: E402

PREPARE = {"sweep-fig4": sweep_fig4.prepare, "netsim": netsim_run.prepare}

if __name__ == "__main__":
    PREPARE[sys.argv[1]](root)
    print("ready", flush=True)
