"""In-simulation probes: sampled telemetry driven by simulation time.

A probe observes a running packet simulation at a fixed simulation-time
cadence without perturbing it.  The contract, enforced by the golden
tests and ``repro lint`` (DET002):

* probes never read wall clocks — every timestamp is the scheduler's
  simulated ``now``;
* probes never schedule events — the network runs the scheduler in
  probe-interval chunks (the scheduler pops the exact same event order
  across repeated ``run(until=t)`` barriers) and samples *between*
  chunks, so the event sequence, every counter and every result is
  byte-identical with probes on or off;
* probes never reach into simulator internals — the network pushes
  read-only snapshot dictionaries (``QueueDiscipline.probe_snapshot`` /
  ``TcpSender.probe_snapshot``) into the recorder.

The knob is inert by default: ``probe=None`` everywhere, and sweep/fleet
specs only carry a probe parameter when one is requested, so enabling a
probe on an uncached run cannot split the result cache.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

__all__ = ["ProbeConfig", "ProbeRecord", "ProbeLog", "TraceRecorder", "Probe"]


@dataclass(frozen=True)
class ProbeConfig:
    """Configuration of an in-simulation probe.

    Attributes
    ----------
    interval_s:
        Sampling cadence in *simulated* seconds.
    include_queues:
        Sample every queue's depth/sojourn/drop/mark counters.
    include_flows:
        Sample every sender's cwnd, pacing rate, RTT and loss counters.
        Fleet shards turn this off: per-flow series over thousands of
        units would break the O(cells) contract.
    max_samples:
        Hard cap on the number of sampling instants; sampling past the
        cap is skipped and the resulting log is flagged ``truncated``.
    """

    interval_s: float
    include_queues: bool = True
    include_flows: bool = True
    max_samples: int = 100_000

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.max_samples < 1:
            raise ValueError("max_samples must be at least 1")


@dataclass(frozen=True)
class ProbeRecord:
    """One sampled observation of one object at one simulated instant.

    Attributes
    ----------
    t:
        Simulation time of the sample, in seconds.
    kind:
        What was sampled: ``"queue"`` or ``"flow"``.
    name:
        Queue name, or ``"conn<id>"`` for a sender.
    fields:
        The sampled values (a read-only snapshot of public counters).
    """

    t: float
    kind: str
    name: str
    fields: Mapping[str, float]


class TraceRecorder:
    """Append-only store of :class:`ProbeRecord` observations.

    The recorder is deliberately passive: it holds what it is given and
    enforces the sample cap.  Anything capable of reading simulated time
    and producing snapshot dictionaries can feed it; :class:`Probe` is
    the standard driver.
    """

    def __init__(self, max_records: int = 10_000_000):
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        self.max_records = int(max_records)
        self.records: list[ProbeRecord] = []
        #: True once a record was discarded because the cap was reached.
        self.truncated = False

    def record(self, t: float, kind: str, name: str, fields: Mapping[str, float]) -> None:
        """Append one observation (dropped, and flagged, past the cap)."""
        if len(self.records) >= self.max_records:
            self.truncated = True
            return
        self.records.append(ProbeRecord(t=float(t), kind=kind, name=name, fields=dict(fields)))


@dataclass(frozen=True)
class ProbeLog:
    """The finished output of one probed simulation.

    Attributes
    ----------
    config:
        The :class:`ProbeConfig` the run was probed with.
    records:
        Every observation, in sampling order (time-major, queues before
        flows at each instant, each group in deterministic name order).
    truncated:
        True when the ``max_samples`` cap cut sampling short.
    """

    config: ProbeConfig
    records: tuple[ProbeRecord, ...] = ()
    truncated: bool = False

    @property
    def sample_times(self) -> tuple[float, ...]:
        """Distinct sampling instants, in order."""
        times: list[float] = []
        for record in self.records:
            if not times or record.t != times[-1]:
                times.append(record.t)
        return tuple(times)

    def names(self, kind: str) -> tuple[str, ...]:
        """Distinct sampled object names of one kind, sorted."""
        return tuple(sorted({r.name for r in self.records if r.kind == kind}))

    def series(self, kind: str, name: str, metric: str) -> list[tuple[float, float]]:
        """Time series ``[(t, value), ...]`` of one metric of one object."""
        return [
            (r.t, float(r.fields[metric]))
            for r in self.records
            if r.kind == kind and r.name == name and metric in r.fields
        ]


class Probe:
    """Drives sampling of a packet simulation at a fixed sim-time cadence.

    The network owns the loop: it runs the scheduler up to each instant
    in :meth:`sample_times` and then calls :meth:`sample` with snapshot
    dictionaries of its queues and senders.  The probe itself never
    touches the scheduler or the network.
    """

    def __init__(self, config: ProbeConfig):
        self.config = config
        self.recorder = TraceRecorder()
        self._samples_taken = 0
        self._truncated = False

    def sample_times(self, duration_s: float) -> list[float]:
        """The sampling instants for a run of ``duration_s`` seconds.

        Multiples of the interval (``k * interval_s`` — multiplication,
        not accumulation, so float error cannot drift the cadence) up to
        and including ``duration_s``, capped at ``max_samples``.
        """
        interval = self.config.interval_s
        count = int(duration_s / interval + 1e-9)
        if count > self.config.max_samples:
            count = self.config.max_samples
            self._truncated = True
        return [k * interval for k in range(1, count + 1)]

    def sample(
        self,
        now: float,
        queues: Mapping[str, Mapping[str, float]],
        flows: Mapping[int, Mapping[str, float]],
    ) -> None:
        """Record one sampling instant from prepared snapshots.

        ``queues`` maps queue name to its snapshot; ``flows`` maps
        connection id to its snapshot.  Iteration is over sorted keys so
        the record order is deterministic.
        """
        self._samples_taken += 1
        if self.config.include_queues:
            for name in sorted(queues):
                self.recorder.record(now, "queue", name, queues[name])
        if self.config.include_flows:
            for cid in sorted(flows):
                self.recorder.record(now, "flow", f"conn{cid}", flows[cid])

    def log(self) -> ProbeLog:
        """Freeze the recorded observations into a :class:`ProbeLog`."""
        return ProbeLog(
            config=self.config,
            records=tuple(self.recorder.records),
            truncated=self._truncated or self.recorder.truncated,
        )
