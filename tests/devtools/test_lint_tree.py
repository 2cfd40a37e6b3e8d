"""Whole-tree smoke test: the shipped source tree lints clean.

This is the gating property CI relies on: ``repro lint src`` exits 0 on
the tree as committed, so any new violation fails the build with a
file:line diagnostic.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint.engine import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.skipif(not SRC.exists(), reason="source tree not available")
class TestTreeIsClean:
    def test_src_lints_clean(self):
        diagnostics = lint_paths([SRC])
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)

    def test_cli_smoke_on_src(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out

    def test_scoped_packages_resolve_module_names(self):
        # Guard against discovery regressions: the walker must see the
        # package chain, otherwise scoped rules silently stop applying.
        from repro.devtools.lint.walker import module_name_for

        spec_py = SRC / "repro" / "runner" / "spec.py"
        assert module_name_for(spec_py) == "repro.runner.spec"
