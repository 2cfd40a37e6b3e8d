"""Set-up of one workload in a fresh process.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports ``repro`` from ``src/``, then builds the workload's inputs up to
its first task, and prints ``{"import_s": ..., "setup_s": ...}``: the
time from the start of the import to its end and to the end of the
build, scaled like every timed phase (see :mod:`perfbench.calibrate`)
by the calibration kernel's time just before and just after.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.calibrate import REFERENCE_S, kernel

    kernel()
    before = kernel()
    start = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    WORKLOADS[argv[0]]().build(int(argv[1]))
    built = time.perf_counter()
    scale = REFERENCE_S / ((before + kernel()) / 2)
    print(json.dumps({"import_s": (imported - start) * scale, "setup_s": (built - start) * scale}))


if __name__ == "__main__":
    main(sys.argv[1:])
