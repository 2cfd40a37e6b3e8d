"""Layering rule: LAY001 (imports point down the layer map).

The package is layered (see ``docs/architecture.md``): substrates and
the runner at the bottom, the figure harnesses of ``repro.experiments``
above them, declarative campaigns above those, and the two public
surfaces, ``repro.cli`` and ``repro.api``, on top.  An import from a
lower layer into a higher one ties the substrate to what is built on
it: a runner that imports experiments cannot run a spec without loading
every figure harness.

LAY001 flags every import, at module or function level and including
relative ones, of a guarded package from a module outside that
package's allowed importers (``LAYER_IMPORTERS`` in
:mod:`repro.devtools.lint.config`).  The rule needs the importing file's
module name, so files outside any package are never flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint.base import Diagnostic, Rule, register_rule
from repro.devtools.lint.config import LAYER_IMPORTERS, RULE_SCOPES
from repro.devtools.lint.walker import FileContext

__all__ = ["LayerImportRule"]


def _within(module: str, package: str) -> bool:
    """Whether ``module`` is ``package`` or one of its submodules."""
    return module == package or module.startswith(package + ".")


def _imported(node: ast.Import | ast.ImportFrom, ctx: FileContext) -> list[str]:
    """Dotted names an import statement loads, relative imports resolved."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level and ctx.module is not None:
        package = ctx.module.split(".")
        if ctx.path.name != "__init__.py":
            package = package[:-1]
        anchor = package[: len(package) - (node.level - 1)]
        base = ".".join([*anchor, *([node.module] if node.module else [])])
    # ``from repro import api`` loads repro.api, not just repro.
    return [base, *(f"{base}.{alias.name}" for alias in node.names)]


@register_rule
class LayerImportRule(Rule):
    """LAY001: no imports of a higher layer from below it."""

    code = "LAY001"
    summary = "import of a higher layer (experiments, campaign, cli, api) from below it"
    scopes = RULE_SCOPES["LAY001"]

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag each import statement that reaches above the file's layer."""
        importer = ctx.module
        if importer is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported(node, ctx):
                violated = [
                    package
                    for package, importers in LAYER_IMPORTERS.items()
                    if _within(target, package)
                    and not any(_within(importer, allowed) for allowed in importers)
                ]
                if violated:
                    yield self.report(
                        ctx,
                        node,
                        f"{importer} imports {target}, a layer above it "
                        f"({violated[0]} may be imported only from "
                        f"{', '.join(LAYER_IMPORTERS[violated[0]])}); move the "
                        "shared code down or register it from above",
                    )
                    break
