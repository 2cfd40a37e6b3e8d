"""CLI tests for ``repro lint``: dispatch, exit codes, report format."""

import textwrap

from repro.cli import main

BAD_SNIPPET = """
import random

def jitter():
    return random.random()
"""

GOOD_SNIPPET = """
import numpy as np

def draw(seed):
    return np.random.default_rng(seed).random()
"""


def write(tmp_path, code, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return path


class TestLintCli:
    def test_violations_exit_one_with_file_line_diagnostics(self, tmp_path, capsys):
        bad = write(tmp_path, BAD_SNIPPET)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:5:" in out  # file:line:col anchor
        assert "DET001" in out
        assert "found 1 violation(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = write(tmp_path, GOOD_SNIPPET)
        assert main(["lint", str(good)]) == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        assert "error" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        good = write(tmp_path, GOOD_SNIPPET)
        assert main(["lint", "--select", "NOPE001", str(good)]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = write(tmp_path, BAD_SNIPPET)
        assert main(["lint", "--select", "DET002", str(bad)]) == 0
        assert main(["lint", "--select", "DET001,DET002", str(bad)]) == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "KEY001", "KEY002", "API001", "LAY001"):
            assert code in out

    def test_lint_listed_as_tool(self, capsys):
        assert main(["list"]) == 0
        assert "lint" in capsys.readouterr().out

    def test_directory_lint(self, tmp_path, capsys):
        write(tmp_path, BAD_SNIPPET, name="bad.py")
        write(tmp_path, GOOD_SNIPPET, name="good.py")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py" in out
        assert "good.py" not in out
