"""Start-up cost: which modules importing or running ``repro`` code loads.

``scipy.stats`` takes most of a second to import, paid again by every
CLI command and every worker started with ``spawn`` or ``forkserver``.
A packet run's first call imports the dynamic-traffic package inside a
worker's timed work, so that package must not pull in the workload
layer.  Each case runs a fresh interpreter, because this test process
has long since loaded scipy and every ``repro`` module through other
tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The directory holding the ``repro`` package, in-tree or installed.
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def modules_after(code: str, package: str) -> set[str]:
    """The ``package`` modules a fresh interpreter has loaded after running ``code``."""
    code = (
        f"import sys\n{code}\n"
        f"print(' '.join(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (PACKAGE_ROOT, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(done.stdout.split())


@pytest.mark.parametrize("module", ["repro", "repro.runner", "repro.netsim.packet"])
def test_loads_no_scipy(module):
    assert modules_after(f"import {module}", "scipy") == set()


@pytest.mark.parametrize("module", ["repro.cli", "repro.api"])
def test_loads_no_scipy_stats(module):
    assert "scipy.stats" not in modules_after(f"import {module}", "scipy")


def test_packet_run_loads_no_workload():
    loaded = modules_after(
        "from repro.netsim.packet.simulation import FlowConfig, simulate\n"
        "simulate([FlowConfig(0)], capacity_mbps=10.0, duration_s=1.0, warmup_s=0.5)",
        "repro",
    )
    assert "repro.netsim.traffic.source" in loaded  # the run really ran
    upper = {m for m in loaded if m.startswith(("repro.workload", "repro.core.designs"))}
    assert upper == set()
