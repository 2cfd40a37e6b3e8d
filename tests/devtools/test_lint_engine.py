"""Engine-level tests: discovery, module scoping, suppressions, ordering."""

import textwrap

import pytest

from repro.devtools.lint.engine import lint_paths
from repro.devtools.lint.walker import collect_files, load_file, module_name_for

RANDOM_SNIPPET = """
import random

def jitter():
    return random.random()
"""


def write(path, code):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


class TestWalker:
    def test_collect_files_expands_directories(self, tmp_path):
        write(tmp_path / "pkg" / "a.py", "x = 1\n")
        write(tmp_path / "pkg" / "sub" / "b.py", "y = 2\n")
        write(tmp_path / "pkg" / "__pycache__" / "c.py", "z = 3\n")
        write(tmp_path / "pkg" / "notes.txt", "not python\n")
        files = collect_files([tmp_path])
        names = [f.name for f in files]
        assert names == ["a.py", "b.py"]

    def test_collect_files_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "missing"])

    def test_collect_files_non_python_file_raises(self, tmp_path):
        stray = write(tmp_path / "notes.txt", "text")
        with pytest.raises(FileNotFoundError):
            collect_files([stray])

    def test_module_name_from_package_chain(self, tmp_path):
        write(tmp_path / "pkg" / "__init__.py", "")
        write(tmp_path / "pkg" / "sub" / "__init__.py", "")
        mod = write(tmp_path / "pkg" / "sub" / "mod.py", "x = 1\n")
        assert module_name_for(mod) == "pkg.sub.mod"
        assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == "pkg.sub"

    def test_module_name_outside_package_is_none(self, tmp_path):
        mod = write(tmp_path / "standalone.py", "x = 1\n")
        assert module_name_for(mod) is None

    def test_load_file_parses_suppressions(self, tmp_path):
        mod = write(
            tmp_path / "mod.py",
            """
            x = 1  # repro-lint: disable=DET001, KEY001
            # repro-lint: disable=*
            y = 2
            """,
        )
        ctx = load_file(mod)
        assert ctx.is_suppressed("DET001", 2)
        assert ctx.is_suppressed("KEY001", 2)
        assert not ctx.is_suppressed("API001", 2)
        # The standalone comment covers itself and the following line.
        assert ctx.is_suppressed("API001", 4)


class TestScoping:
    def test_unpackaged_file_gets_all_rules(self, tmp_path):
        bad = write(tmp_path / "fixture.py", RANDOM_SNIPPET)
        assert [d.code for d in lint_paths([bad])] == ["DET001"]

    def test_determinism_rules_scope_to_simulation_layers(self, tmp_path):
        # The same snippet inside a package named repro.reporting (outside
        # every DET scope) is ignored; inside repro.netsim it fires.
        write(tmp_path / "repro" / "__init__.py", "")
        write(tmp_path / "repro" / "reporting" / "__init__.py", "")
        write(tmp_path / "repro" / "netsim" / "__init__.py", "")
        out_of_scope = write(tmp_path / "repro" / "reporting" / "fmt.py", RANDOM_SNIPPET)
        in_scope = write(tmp_path / "repro" / "netsim" / "sim.py", RANDOM_SNIPPET)
        assert lint_paths([out_of_scope], select=["DET001"]) == []
        assert [d.code for d in lint_paths([in_scope], select=["DET001"])] == ["DET001"]

    def test_diagnostics_sorted_by_position(self, tmp_path):
        bad = write(
            tmp_path / "fixture.py",
            """
            import random
            import time

            def stamp():
                return time.time()

            def jitter():
                return random.random()
            """,
        )
        diags = lint_paths([bad])
        assert [d.line for d in diags] == sorted(d.line for d in diags)
        assert [d.code for d in diags] == ["DET002", "DET001"]


class TestParseErrors:
    def test_syntax_error_becomes_parse_diagnostic(self, tmp_path):
        bad = write(tmp_path / "broken.py", "def broken(:\n")
        diags = lint_paths([bad])
        assert [d.code for d in diags] == ["PARSE"]
        assert diags[0].line >= 1

    def test_parse_diagnostic_does_not_stop_other_files(self, tmp_path):
        write(tmp_path / "broken.py", "def broken(:\n")
        write(tmp_path / "fixture.py", RANDOM_SNIPPET)
        codes = {d.code for d in lint_paths([tmp_path])}
        assert codes == {"PARSE", "DET001"}


class TestSelect:
    def test_select_restricts_rules(self, tmp_path):
        bad = write(
            tmp_path / "fixture.py",
            """
            import time

            def stamp(scheduler):
                for x in set(scheduler):
                    yield x, time.time()
            """,
        )
        assert {d.code for d in lint_paths([bad])} == {"DET002", "DET003"}
        assert {d.code for d in lint_paths([bad], select=["DET003"])} == {"DET003"}
