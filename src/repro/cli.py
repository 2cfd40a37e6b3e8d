"""Command-line interface: reproduce figures, sweeps and whole campaigns.

The CLI is a family of subcommands::

    repro list                       # enumerate figures and tools
    repro fig2a                      # parallel-connections lab figure
    repro fig5 --quick               # paired-link treatment-effect table
    repro fig10 --seed 11 --jobs 4   # design comparison, 4 worker processes
    repro topo_rtt --jobs 4          # A/B bias under heterogeneous RTTs
    repro topo_aqm --quick           # does CoDel shrink the A/B bias?
    repro topo_parking --jobs 4      # parking-lot bias + cross-segment spillover
    repro topo_fq --quick            # does per-flow FQ eliminate the bias?
    repro topo_churn --quick         # bias under flow churn + switchback-vs-ramp
    repro topo_l4s --quick           # does L4S/DCTCP marking shrink the bias?
    repro fleet --quick --jobs 4     # sharded fleet: bias vs cluster size
    repro sweep fig5 --replications 5 --jobs 4   # multi-seed mean ± CI
    repro run campaign.yaml --jobs 4 --trace RUN # declarative campaign
    repro validate RUN               # check a campaign run directory
    repro lint src                   # invariant linter (see docs/invariants.md)
    repro report RUN                 # render a traced run directory

Every figure subcommand prints the same rows/series the corresponding
benchmark asserts on; ``--quick`` shrinks the synthetic workload for
faster runs.  ``--jobs N`` fans independent simulation arms out over N
worker processes (results are bit-identical to ``--jobs 1``), and
``--cache`` reuses results of unchanged runs from an on-disk cache.
The fluid lab figures (``fig2a``, ``fig2b``, ``fig3``) run their arms
in-process, so there ``--jobs`` and ``--cache`` do nothing, as
``--quick`` does nothing; every figure shares one flag set.

``repro sweep FIGURE`` runs ``--replications`` seeds of one figure
through the parallel runner and reports each scalar cell's mean with a
95 % confidence interval across seeds.  ``repro run CAMPAIGN`` scales
that up to a declarative YAML/JSON campaign file — many figures, knob
sweeps and seed grids in one command (see ``docs/campaigns.md``) — and
``repro validate RUNDIR`` checks the resulting ``manifest.json``.

``--trace DIR`` (on ``sweep``, ``fleet`` and ``run``) records runner
spans and cache events to a run directory, ``--profile`` adds per-task
cProfile hotspots, and ``--probe SECONDS`` samples in-sim telemetry on
fleet shards — all without changing any simulated result (see
``docs/observability.md``).  Each flag lives only on the subcommands it
applies to, so an inapplicable flag is a parse error, not a silent no-op.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.experiments.figures import figure_spec, figures, get_figure, parse_knob
from repro.obs.trace import RunTracer, add_trace_arguments
from repro.reporting import format_table
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import ParallelExecutor

__all__ = ["build_parser", "main"]


def _make_cache(args: argparse.Namespace) -> ResultCache | None:
    if not args.cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _command_line(args: argparse.Namespace) -> str:
    """Reconstruct a readable command line for the trace metadata."""
    parts = ["repro", args.figure]
    for attribute in ("campaign_file", "target"):
        value = getattr(args, attribute, None)
        if value:
            parts.append(str(value))
    if getattr(args, "quick", False):
        parts.append("--quick")
    if getattr(args, "jobs", 1) != 1:
        parts.append(f"--jobs {args.jobs}")
    probe = getattr(args, "probe", None)
    if probe:
        parts.append(f"--probe {probe:g}")
    if getattr(args, "profile", False):
        parts.append("--profile")
    return " ".join(parts)


def _make_tracer(args: argparse.Namespace) -> RunTracer | None:
    """The run tracer for ``--trace DIR``, or ``None``."""
    if not getattr(args, "trace", None):
        return None
    return RunTracer(args.trace, command=_command_line(args))


def _make_executor(args: argparse.Namespace) -> ParallelExecutor:
    """The one executor a command runs on, built from ``--jobs``, ``--cache``,
    ``--cache-dir`` and, where the subcommand has them, ``--trace`` and
    ``--profile``."""
    return ParallelExecutor(
        jobs=args.jobs,
        cache=_make_cache(args),
        tracer=_make_tracer(args),
        profile=getattr(args, "profile", False),
    )


def _run_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    figure = figures().get(args.target) if args.target else None
    if figure is None:
        problem = (
            f"unknown figure {args.target!r}"
            if args.target
            else "'sweep' needs a figure to replicate"
        )
        parser.error(f"{problem}; choose one of {', '.join(figures())}")
    if args.replications < 1:
        parser.error("--replications must be at least 1")
    try:
        knob = parse_knob(figure.knob, getattr(args, figure.knob))
    except ValueError as exc:
        parser.error(f"--{figure.knob}: {exc}")

    # The spec carries only the knob the figure consumes, so an inert flag
    # (--noise on a paired figure, --quick on a lab one) cannot split the
    # cache; an unseeded figure's replications would recompute identical
    # cells, so they collapse to one seed-free run.
    target = figure.name
    replication_count = args.replications if figure.seeded else 1
    specs = [
        figure_spec(
            target,
            seed=args.seed + r,
            label=f"sweep[{target}, seed={args.seed + r}]",
            **{figure.knob: knob},
        )
        for r in range(replication_count)
    ]
    executor = _make_executor(args)
    replications = executor.map(specs)
    if executor.tracer is not None:
        executor.tracer.finish({"figure": target, "replications": replication_count})
        print(f"trace written to {args.trace}", file=sys.stderr)

    from repro.campaign.run import confidence_half_width

    cells = list(replications[0])
    rows = []
    for cell in cells:
        values = np.array([float(rep[cell]) for rep in replications])
        half = confidence_half_width(values)
        rows.append([cell, f"{values.mean():+.3f}", f"±{half:.3f}", str(len(values))])
    if not figure.seeded:
        print(f"{target}: deterministic figure, 1 replication (seeds have no effect)")
    else:
        print(
            f"{target}: {args.replications} replication(s), "
            f"seeds {args.seed}..{args.seed + args.replications - 1}"
        )
    print(format_table(["cell", "mean", "95% CI", "n"], rows))
    return 0


def _run_campaign_command(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro run CAMPAIGN``: execute a declarative campaign file."""
    from repro.campaign.loader import CampaignError, load_campaign
    from repro.campaign.run import run_campaign

    try:
        campaign = load_campaign(args.campaign_file)
    except CampaignError as exc:
        parser.error(str(exc))
    tracer = _make_tracer(args)
    cache = _make_cache(args)
    result = run_campaign(
        campaign,
        jobs=args.jobs,
        cache=cache,
        tracer=tracer,
        profile=args.profile,
        rundir=args.trace,
    )
    print("\n".join(result.summary_lines()))
    if cache is not None:
        print(
            f"cache: {result.cache_hits} hit(s), {result.cache_misses} miss(es)",
            file=sys.stderr,
        )
    if tracer is not None:
        tracer.finish(
            {
                "campaign": campaign.name,
                "stages": len(campaign.stages),
                "arms": len(result.arms),
                "unique_arms": result.unique_arms,
            }
        )
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _run_validate_command(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro validate RUNDIR``: check a campaign run directory."""
    from repro.campaign.loader import CampaignError, load_campaign
    from repro.campaign.validate import validate_run

    campaign = None
    if args.campaign:
        try:
            campaign = load_campaign(args.campaign)
        except CampaignError as exc:
            parser.error(str(exc))
    rundir = Path(args.rundir)
    if not rundir.is_dir():
        print(f"error: {rundir} is not a directory", file=sys.stderr)
        return 2
    report = validate_run(rundir, campaign=campaign)
    print("\n".join(report.summary_lines()))
    return 0 if report.ok else 1


def _run_list_command() -> int:
    """``repro list``: enumerate figures, campaign commands and tools."""
    groups: dict[str, list[str]] = {}
    for figure in figures().values():
        groups.setdefault(figure.group, []).append(figure.name)
    for index, (group, names) in enumerate(groups.items()):
        # The first heading is one column narrower than the rest, as it
        # always was: this output is pinned byte for byte.
        print(f"{group} figures:".ljust(20 if index == 0 else 21) + ", ".join(names))
    print("sweepable figures:   " + ", ".join(figures()))
    print(
        "campaigns:           run (repro run campaign.yaml --jobs N --trace RUN), "
        "validate (repro validate RUN)"
    )
    print(
        "tools:               lint (invariant linter; repro lint --list-rules), "
        "report (render a --trace run directory)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the subcommand-structured CLI argument parser.

    Every figure is its own subcommand sharing the common execution
    flags; scoped flags (``--trace``, ``--probe``, sweep knobs, topology
    knobs) exist only on the subcommands that consume them.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quick", action="store_true", help="use a smaller synthetic workload"
    )
    common.add_argument("--seed", type=int, default=7, help="workload random seed")
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation arms (default: 1)",
    )
    common.add_argument(
        "--cache",
        action="store_true",
        help="reuse results of unchanged runs from the on-disk cache",
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    tracing = argparse.ArgumentParser(add_help=False)
    add_trace_arguments(tracing)

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce figures from 'Unbiased Experiments in Congested Networks' (IMC 2021)."
        ),
    )
    parser.set_defaults(target=None)
    subparsers = parser.add_subparsers(
        dest="figure", required=True, metavar="command"
    )

    list_parser = subparsers.add_parser(
        "list", help="enumerate figures, campaign commands and tools"
    )
    list_parser.set_defaults(_subparser=list_parser)

    sweep = subparsers.add_parser(
        "sweep",
        parents=[common, tracing],
        help="replicate one figure across seeds and report mean ± CI per cell",
    )
    sweep.add_argument(
        "target",
        nargs="?",
        default=None,
        help="the figure to replicate across seeds",
    )
    sweep.add_argument(
        "--replications",
        type=int,
        default=5,
        help="number of seeds (default: 5)",
    )
    sweep.add_argument(
        "--noise",
        type=float,
        default=0.02,
        help="measurement-noise level for lab figures (default: 0.02)",
    )
    sweep.set_defaults(_subparser=sweep)

    run_parser = subparsers.add_parser(
        "run",
        parents=[tracing],
        help="execute a declarative campaign file (YAML/JSON)",
    )
    run_parser.add_argument(
        "campaign_file",
        metavar="CAMPAIGN",
        help="campaign file declaring stages, knobs and seed grids",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation arms (default: 1)",
    )
    run_parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse results of unchanged arms from the on-disk cache",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    run_parser.set_defaults(_subparser=run_parser)

    validate = subparsers.add_parser(
        "validate",
        help="check a campaign run directory (manifest vs results vs package)",
    )
    validate.add_argument(
        "rundir",
        metavar="RUNDIR",
        help="run directory written by 'repro run ... --trace RUNDIR'",
    )
    validate.add_argument(
        "--campaign",
        metavar="CAMPAIGN",
        default=None,
        help="also check the run against this campaign file's content key",
    )
    validate.set_defaults(_subparser=validate)

    lint = subparsers.add_parser(
        "lint",
        help="AST invariant linter (determinism, content-key and API hygiene)",
    )
    from repro.devtools.lint.engine import configure_parser as configure_lint_parser

    configure_lint_parser(lint)
    lint.set_defaults(_subparser=lint)

    report = subparsers.add_parser(
        "report", help="render a report for a traced run directory"
    )
    from repro.obs.report import configure_parser as configure_report_parser

    configure_report_parser(report)
    report.set_defaults(_subparser=report)

    for figure in figures().values():
        sub = subparsers.add_parser(figure.name, parents=[common], help=figure.help)
        if figure.add_arguments is not None:
            figure.add_arguments(sub)
        sub.set_defaults(_subparser=sub)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(arguments)
    subparser = getattr(args, "_subparser", parser)
    if args.figure == "list":
        return _run_list_command()
    if args.figure == "validate":
        return _run_validate_command(args, subparser)
    if args.figure == "lint":
        from repro.devtools.lint.engine import run_lint

        return run_lint(args)
    if args.figure == "report":
        from repro.obs.report import run_report

        return run_report(args)
    if getattr(args, "profile", False) and args.trace is None:
        subparser.error("--profile requires --trace DIR (hotspots land in the trace)")
    if getattr(args, "seed", 0) < 0:
        subparser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.figure == "sweep":
        return _run_sweep(args, subparser)
    if args.figure == "run":
        return _run_campaign_command(args, subparser)
    if getattr(args, "probe", None) is not None and not 0 < args.probe < math.inf:
        subparser.error("--probe needs a positive, finite sampling interval in seconds")
    executor = _make_executor(args)
    print("\n".join(get_figure(args.figure).render(args, subparser, executor)))
    if executor.tracer is not None:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
