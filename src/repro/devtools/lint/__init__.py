"""AST-based invariant linter (``repro lint``).

Machine-checks the conventions every result in this reproduction rests
on: all randomness seeded and spec-derived (DET001), no wall clocks in
simulation code (DET002), no unordered set iteration feeding results
(DET003), frozen content-keyable specs (KEY001), inert-at-default task
knobs (KEY002), no cross-module private reads (API001), and imports
that point down the layer map (LAY001).

Library entry point::

    from repro.devtools.lint.engine import lint_paths
    diagnostics = lint_paths(["src"])

CLI::

    repro lint [PATHS] [--select CODES] [--list-rules]

Suppress a finding inline with a justification::

    treated = set(units)  # repro-lint: disable=DET003 -- membership only

See ``docs/invariants.md`` for the full rule table and rationale.
"""
