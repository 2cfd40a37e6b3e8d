"""Byte-exact CLI stdout, pinned against committed golden files.

Each file under ``tests/golden/cli/`` is the verbatim stdout of one
``repro`` command at an 80-column terminal.  A change that alters any
byte of what users see (figure tables, help text, ``repro list``) fails
here; when the change is intended, regenerate the file with, e.g.::

    COLUMNS=80 python -m repro fig2a --help > tests/golden/cli/fig2a--help.txt

A ``<stem>.py313.txt`` file, where present, holds the output of Python
3.13 and later, whose argparse lays out the subcommand column wider.
"""

import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"

#: Every figure subcommand, in ``repro --help`` order.
FIGURES = (
    "fig2a",
    "fig2b",
    "fig3",
    "baseline",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "topo_rtt",
    "topo_aqm",
    "topo_parking",
    "topo_fq",
    "topo_churn",
    "topo_l4s",
    "fleet",
)

#: Golden file stem -> argv.
COMMANDS = {
    "list": ["list"],
    "help": ["--help"],
    **{f"{name}--help": [name, "--help"] for name in (*FIGURES, "sweep", "run")},
    "fig2a": ["fig2a"],
    "sweep-fig2a--replications-2": ["sweep", "fig2a", "--replications", "2"],
}


def _stdout(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    try:
        code = main(argv)
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    assert code in (0, None)
    return capsys.readouterr().out


def _golden(stem):
    versioned = GOLDEN_DIR / f"{stem}.py313.txt"
    if sys.version_info >= (3, 13) and versioned.exists():
        return versioned.read_text(encoding="utf-8")
    return (GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_stdout_matches_golden(stem, capsys, monkeypatch):
    assert _stdout(COMMANDS[stem], capsys, monkeypatch) == _golden(stem)
