"""Start-up cost: which modules importing or running ``repro`` code loads.

``scipy.stats`` takes most of a second to import, paid again by every
CLI command and every worker started with ``spawn`` or ``forkserver``.
A module imported inside a worker's timed work is paid there too, so a
packet run imports nothing its own imports had not loaded.  Package
inits re-export nothing, so importing one module does not drag in its
siblings.  Each case runs a fresh interpreter, because this test process
has long since loaded scipy and every ``repro`` module through other
tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The directory holding the ``repro`` package, in-tree or installed.
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: The package inits that may import anything.  perfbench reads the
#: runner, campaign and fleet names through the first three, and
#: ``make_sender`` in the last maps names to the sender classes it imports.
INITS_THAT_IMPORT = {
    "repro.runner",
    "repro.campaign",
    "repro.netsim.fleet",
    "repro.netsim.packet.tcp",
}

PACKET_RUN_IMPORTS = "from repro.netsim.packet.simulation import FlowConfig, simulate"


def run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
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
    return done.stdout


def modules_after(code: str, package: str) -> set[str]:
    """The ``package`` modules a fresh interpreter has loaded after running ``code``."""
    code = (
        f"import sys\n{code}\n"
        f"print(' '.join(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    return set(run_fresh(code).split())


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.runner",
        "repro.netsim.packet",
        "repro.cli",
        "repro.experiments.figures",
        "repro.experiments.lab_fleet",
        "repro.netsim.fleet",
    ],
)
def test_loads_no_scipy(module):
    assert modules_after(f"import {module}", "scipy") == set()


@pytest.mark.parametrize("module", ["repro.api"])
def test_loads_no_scipy_stats(module):
    assert "scipy.stats" not in modules_after(f"import {module}", "scipy")


def test_packet_run_imports_no_repro_module():
    imported = modules_after(PACKET_RUN_IMPORTS, "repro")
    ran = modules_after(
        f"{PACKET_RUN_IMPORTS}\n"
        "simulate([FlowConfig(0)], capacity_mbps=10.0, duration_s=1.0, warmup_s=0.5)",
        "repro",
    )
    assert ran == imported
    upper = {m for m in ran if m.startswith(("repro.workload", "repro.core.designs"))}
    assert upper == set()


def test_package_inits_import_nothing():
    root = Path(repro.__file__).resolve().parent
    importing = set()
    for init in root.rglob("__init__.py"):
        tree = ast.parse(init.read_text())
        if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree)):
            importing.add(".".join(("repro", *init.parent.relative_to(root).parts)))
    assert sorted(importing - INITS_THAT_IMPORT) == []


def test_figure_order_does_not_depend_on_import_order():
    golden = Path(__file__).parent / "golden" / "cli" / "list.txt"
    [listed] = [
        line for line in golden.read_text().splitlines() if line.startswith("sweepable figures:")
    ]
    order = run_fresh(
        "import repro.experiments.lab_fleet\n"
        "from repro.experiments.figures import figures\n"
        "print(', '.join(figures()))"
    )
    assert order.strip() == listed.split(":", 1)[1].strip()
