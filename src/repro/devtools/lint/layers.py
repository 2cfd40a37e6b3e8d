"""Layering rule: LAY001 (imports point down the layer map).

The package is layered (see ``docs/architecture.md``), bottom to top:
the ``repro`` root with ``core``, ``obs``, ``reporting`` and
``devtools``; the runner; the workload; the network simulators; the
figure harnesses of ``repro.experiments``; declarative campaigns; and
the public surfaces ``repro.api``, ``repro.cli`` and ``repro.__main__``.
An import from a lower layer into a higher one ties the substrate to
what is built on it: a runner that imports the simulators cannot run a
spec without loading them, and the two can no longer change apart.

LAY001 flags every import, at module or function level and including
relative ones, of a module in a higher layer than the importing file's
(``LAYERS`` in :mod:`repro.devtools.lint.config`).  A module belongs to
the layer of its longest matching prefix, so a package listed nowhere
falls to the bottom with the ``repro`` root.  The rule needs the
importing file's module name, so files outside any package are never
flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint.base import Diagnostic, Rule, register_rule
from repro.devtools.lint.config import LAYERS, RULE_SCOPES
from repro.devtools.lint.walker import FileContext

__all__ = ["LayerImportRule"]


def _within(module: str, package: str) -> bool:
    """Whether ``module`` is ``package`` or one of its submodules."""
    return module == package or module.startswith(package + ".")


def _layer(module: str) -> tuple[int, str] | None:
    """``(index in LAYERS, matching prefix)`` of ``module``, or ``None`` outside ``repro``."""
    matches = [
        (len(prefix), index, prefix)
        for index, prefixes in enumerate(LAYERS)
        for prefix in prefixes
        if _within(module, prefix)
    ]
    if not matches:
        return None
    _, index, prefix = max(matches)
    return index, prefix


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
    summary = "import of a module in a higher layer (LAYERS, bottom to top)"
    scopes = RULE_SCOPES["LAY001"]

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag each import statement that reaches above the file's layer."""
        importer = ctx.module
        own = None if importer is None else _layer(importer)
        if own is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported(node, ctx):
                layer = _layer(target)
                if layer is not None and layer[0] > own[0]:
                    yield self.report(
                        ctx,
                        node,
                        f"{importer} imports {target}, a layer above it ({layer[1]} "
                        f"sits above {own[1]} in LAYERS); move the shared code "
                        "down or register it from above",
                    )
                    break
