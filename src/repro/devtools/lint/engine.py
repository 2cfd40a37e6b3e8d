"""Lint orchestration and the ``repro lint`` command.

:func:`lint_paths` is the library entry point: expand paths, parse each
file, run every selected rule that is in scope, drop suppressed
findings, and return the sorted diagnostics.  The ``repro lint``
subcommand declares its flags with :func:`configure_parser` and runs
:func:`run_lint` (exit 0 clean / 1 violations / 2 usage).
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from pathlib import Path

# Importing the rule families registers them with the rule registry.
import repro.devtools.lint.api  # noqa: F401
import repro.devtools.lint.contentkey  # noqa: F401
import repro.devtools.lint.determinism  # noqa: F401
import repro.devtools.lint.layers  # noqa: F401
from repro.devtools.lint.base import RULES, Diagnostic, Rule
from repro.devtools.lint.config import DEFAULT_CONFIG, LintConfig
from repro.devtools.lint.contentkey import InertDefaultRule
from repro.devtools.lint.reporter import (
    render_diagnostics,
    render_rule_table,
    render_summary,
)
from repro.devtools.lint.walker import collect_files, load_file

__all__ = ["configure_parser", "lint_paths", "run_lint"]


def _build_rules(config: LintConfig, select: Sequence[str] | None) -> list[Rule]:
    """Instantiate the selected rules (all registered rules by default)."""
    codes = sorted(RULES) if select is None else list(select)
    unknown = [c for c in codes if c not in RULES]
    if unknown:
        raise KeyError(
            f"unknown rule code(s) {', '.join(unknown)}; known: {', '.join(sorted(RULES))}"
        )
    rules: list[Rule] = []
    for code in codes:
        cls = RULES[code]
        if cls is InertDefaultRule:
            rules.append(InertDefaultRule(config))
        else:
            rules.append(cls())
    return rules


def lint_paths(
    paths: Sequence[str | Path],
    config: LintConfig = DEFAULT_CONFIG,
    select: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Lint files/directories and return sorted diagnostics.

    Parameters
    ----------
    paths:
        Files or directories; directories are walked for ``*.py``.
    config:
        Scope and baseline policy (defaults to the repo policy).
    select:
        Restrict to these rule codes; ``None`` runs every rule.
    """
    files = collect_files([Path(p) for p in paths])
    rules = _build_rules(config, select)
    diagnostics: list[Diagnostic] = []
    for path in files:
        try:
            ctx = load_file(path)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                    code="PARSE",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in rules:
            if not rule.applies_to(ctx.module):
                continue
            for diag in rule.check(ctx):
                if not ctx.is_suppressed(diag.code, diag.line):
                    diagnostics.append(diag)
    return sorted(diagnostics)


def count_files(paths: Sequence[str | Path]) -> int:
    """Number of Python files a lint of ``paths`` would cover."""
    return len(collect_files([Path(p) for p in paths]))


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the ``repro lint`` flags on the CLI's ``lint`` subcommand parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` from parsed options; returns the exit code."""
    if args.list_rules:
        print(render_rule_table())
        return 0
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    try:
        diagnostics = lint_paths(args.paths, select=select)
        files_checked = count_files(args.paths)
    except FileNotFoundError as exc:
        print(f"repro lint: error: {exc}")
        return 2
    except KeyError as exc:
        print(f"repro lint: error: {exc.args[0]}")
        return 2
    if diagnostics:
        print(render_diagnostics(diagnostics))
    print(render_summary(diagnostics, files_checked))
    return 1 if diagnostics else 0
