"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload packet_lab --seed 1 --seconds 25 --trace 0

Workloads (see :mod:`perfbench.workloads`): ``packet_lab``,
``fleet_quick`` and ``campaign_cache``.  Every run first times the
workload's set-up in fresh processes, then:

* ``--trace 0`` runs the workload as a closed-loop batch job, pass after
  pass, for about ``--seconds`` seconds with no spans installed, and
  reports the end-to-end metrics ``setup_s`` (median over fresh
  processes), ``work_per_s`` (the workload's work per second: MSS
  segments for ``packet_lab``, fleet units for ``fleet_quick``, campaign
  arms for ``campaign_cache``; each phase of a pass timed as
  :mod:`perfbench.calibrate` describes) and ``peak_rss_mb``;
* ``--trace 1`` runs the workload once without and once with call spans
  in-process (``jobs=1``), then once at its own worker count with the
  runner's task hook, and reports the per-layer metrics of
  :mod:`perfbench.layers`; the spans go to ``perfbench/out/``.

Both print a report for people, then as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every output check
(see the workloads) counts against the operations it covers.  The exit
code is 0 when every check holds, 1 when one failed, and 2 when the
program could not be set up (no JSON is printed then).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 7
OUT_DIR = HERE / "out"

#: End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))


class SetupError(RuntimeError):
    """The program under test could not be imported or set up."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("packet_lab", "fleet_quick", "campaign_cache")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median ``(setup_s, import_s)`` over :data:`SETUP_RUNS` fresh processes."""
    setups, imports = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            raise SetupError(f"set-up failed: {lines[-1]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or raise SetupError."""
    try:
        import repro
    except ImportError as exc:
        raise SetupError(f"cannot import repro from {ROOT / 'src'}: {exc}") from exc
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SetupError(f"repro was imported from {repro.__file__}, not from this checkout")


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed over every pass of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome, digest_differs: bool = False) -> None:
        """Count one pass; a pass whose digest differs fails every operation."""
        self.attempted += outcome.ops
        self.failed += outcome.ops if digest_differs else outcome.failed
        self.problems.extend(outcome.problems)
        if digest_differs:
            self.problems.append("a pass simulated different statistics than its reference")

    def crash(self, ops: int) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(traceback.format_exc().strip().splitlines()[-1])


def timed_passes(workload, inputs, seconds: float, tally: Tally) -> list:
    """Closed-loop passes until another one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        try:
            outcome = workload.run_pass(inputs, jobs=workload.runner_jobs)
        except Exception:
            tally.crash(passes[-1].ops if passes else 1)
            traceback.print_exc()
            return passes
        tally.add(outcome, digest_differs=bool(passes) and outcome.digest != passes[0].digest)
        passes.append(outcome)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def end_to_end(workload, passes: list, setup_s: float, tally: Tally) -> dict[str, float]:
    """The end-to-end metrics of a timed run, printed with the issue's names.

    Every pass does the same work (the digests agree), so the work rate
    is the work of one pass over the time of one pass, reduced from the
    run's repeats by :func:`perfbench.calibrate.phase_seconds`.
    """
    from perfbench.calibrate import phase_seconds

    pass_s = phase_seconds([p.clock for p in passes]) if passes else 0.0
    work_per_s = passes[0].work / pass_s if passes else 0.0
    rss = peak_rss_mb()
    segments_per_s = passes[0].segments / pass_s if passes and passes[0].segments else None
    print(f"workload {workload.name}: {len(passes)} passes at jobs={workload.runner_jobs}")
    issue_rows = {
        "setup_s": (setup_s, "s"),
        "segments_per_s": (segments_per_s, "segments/s"),
        "units_per_s": (work_per_s if workload.work_name == "units_per_s" else None, "units/s"),
        "arms_per_s": (work_per_s if workload.work_name == "arms_per_s" else None, "arms/s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
    }
    for name, (value, unit) in issue_rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>14} {unit}")
    if passes:
        wall_rate = statistics.median(p.work / p.wall_s for p in passes)
        print(f"  pass wall s: {', '.join(f'{p.wall_s:.3f}' for p in passes)}")
        print(f"  median pass: {wall_rate:.6g} work per wall second")
        print(f"  digest {passes[0].digest}")
    return {"setup_s": setup_s, "work_per_s": work_per_s, "peak_rss_mb": rss}


def trace_workload(workload, seed: int, import_s: float, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics of one workload, and the span record behind them.

    Builds the inputs and runs the pass at the workload's worker count
    under spans in this process, and runs the in-process call pass once
    without and once with every span.  Checks that neither the spans nor
    the worker count change the simulated statistics.
    """
    from perfbench import layers
    from perfbench.tracing import TaskLog, Tracer, install_call_spans, install_parent_spans

    parent = Tracer()
    install_parent_spans(parent)
    try:
        inputs = workload.build(seed)
    finally:
        parent.uninstall()
    workload.warm_up(inputs)

    untraced = workload.call_pass(inputs)
    call = Tracer()
    install_parent_spans(call, dispatch=False)
    install_call_spans(call)
    try:
        traced = workload.call_pass(inputs)
    finally:
        call.uninstall()

    tasks = TaskLog()
    install_parent_spans(parent)
    try:
        runner = workload.run_pass(inputs, jobs=workload.runner_jobs, on_task_done=tasks)
    finally:
        parent.uninstall()

    tally.add(untraced)
    tally.add(traced, digest_differs=traced.digest != untraced.digest)
    tally.add(
        runner, digest_differs=workload.full_call_pass and runner.digest != untraced.digest
    )

    values = layers.compute(
        call=call,
        call_traced=traced,
        call_untraced=untraced,
        parent=parent,
        runner=runner,
        tasks=tasks,
        runner_jobs=workload.runner_jobs,
        import_s=import_s,
    )
    record = {
        "workload": workload.name,
        "seed": seed,
        "metrics": values,
        "call_pass": {"wall_s": traced.wall_s, "spans": call.export()},
        "untraced_call_pass_wall_s": untraced.wall_s,
        "runner_pass": {
            "jobs": workload.runner_jobs,
            "wall_s": runner.wall_s,
            "spans": parent.export(),
            "task_wall_s": tasks.walls,
            "task_result_bytes": tasks.result_bytes,
        },
        "digest": untraced.digest,
    }
    return values, record


def traced_run(workload, seed: int, import_s: float, tally: Tally) -> dict[str, float]:
    from perfbench import layers

    values, record = trace_workload(workload, seed, import_s, tally)
    print(f"workload {workload.name}: traced per-layer metrics (seed {seed})")
    for name, unit, _, moves in layers.PER_LAYER:
        print(f"  {name:<32} {values[name]:>14.6g} {unit:<10} -> {moves}")
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{workload.name}_seed{seed}.json"
    trace_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return values


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # The program under test comes from this checkout's src/, never from
    # an installed copy.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import_program()
        setup_s, import_s = measure_setup(args.workload, args.seed)
        from perfbench.workloads import WORK_DIR, WORKLOADS
    except (SetupError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import layers

    workload = WORKLOADS[args.workload]()
    tally = Tally()
    try:
        if args.trace:
            try:
                values = traced_run(workload, args.seed, import_s, tally)
            except Exception:
                tally.crash(1)
                traceback.print_exc()
                values = {name: 0.0 for name, *_ in layers.PER_LAYER}
            metrics = {name: (values[name], unit) for name, unit, *_ in layers.PER_LAYER}
        else:
            inputs = workload.build(args.seed)
            workload.warm_up(inputs)
            passes = timed_passes(workload, inputs, args.seconds, tally)
            values = end_to_end(workload, passes, setup_s, tally)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    for problem in tally.problems[:10]:
        print(f"  check failed: {problem}")
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
