"""Observability: in-sim probes, run tracing, profiling and reporting.

Three tiers, each usable on its own (see ``docs/observability.md``):

* **In-sim probes** (:mod:`repro.obs.probe`) — sample queue depth,
  sojourn, per-flow cwnd/pacing and ECN/drop counters at a configurable
  simulation-time cadence.  Probes are driven purely by the event
  scheduler's clock, never schedule events of their own, and are
  provably non-perturbing: every golden-output test passes byte-identical
  with probes on.
* **Run tracing** (:mod:`repro.obs.trace`) — runner-level spans (task
  start/end, cache hit/miss, worker pid, wall duration) written as JSONL
  plus Chrome trace-event JSON, so any sweep or fleet run opens in
  Perfetto.  Wall-clock reads live *only* here, behind
  :func:`repro.obs.trace.walltime`; simulation results never absorb them.
* **Profiling + reporting** (:mod:`repro.obs.profile`,
  :mod:`repro.obs.report`) — cProfile hotspot tables per runner task and
  ``repro report RUNDIR`` rendering a traced run's progress, engine
  counters and hotspots.

:mod:`repro.obs.metrics` holds the engine-counter schema
(:class:`~repro.obs.metrics.EngineCounters`) every packet simulation
reports.
"""
