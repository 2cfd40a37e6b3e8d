"""Start-up cost: which scipy modules importing a ``repro`` module loads.

``scipy.stats`` takes most of a second to import, paid again by every
CLI command and every worker started with ``spawn`` or ``forkserver``.
Each case runs a fresh interpreter, because this test process has long
since loaded scipy through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The directory holding the ``repro`` package, in-tree or installed.
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def scipy_modules_after(module: str) -> set[str]:
    """The scipy modules a fresh interpreter has loaded after ``import module``."""
    code = (
        f"import sys, {module}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
    assert scipy_modules_after(module) == set()


@pytest.mark.parametrize("module", ["repro.cli", "repro.api"])
def test_loads_no_scipy_stats(module):
    assert "scipy.stats" not in scipy_modules_after(module)
