"""Packet-level discrete-event network simulator.

This substrate reproduces the lab testbed of Section 3 from first
principles: senders with simplified Reno, Cubic or BBR congestion control
(optionally paced) share one or more bottleneck queues; throughput and
retransmissions are measured per flow.

Every simulation runs on one binary-heap
:class:`~repro.netsim.packet.engine.EventScheduler`.  The topology is
composable (:mod:`repro.netsim.packet.network`): queue disciplines are
pluggable (drop-tail, RED, CoDel, FQ-CoDel, DualPI2 — see
:mod:`repro.netsim.packet.queue`), flows may negotiate ECN (AQMs then
CE-mark instead of dropping), each flow can carry its own RTT and path,
paths may include a random-loss segment or a sequence of queues
(parking-lot chains, optionally with per-segment capacities), and
unmeasured cross traffic can share any queue.  Traffic is dynamic when
asked (:mod:`repro.netsim.traffic`): applications may transfer a finite
number of bytes and retire with a flow-completion time, and traffic
sources spawn churning flows at runtime from seeded arrival processes.
The default remains the paper's testbed: a single drop-tail bottleneck
with one symmetric RTT and long-lived flows.

The simulator is intentionally compact — it models exactly what the
lab experiments exercise (window dynamics, ack clocking, queue-discipline
losses, pacing, BBR's rate-based probing) and nothing else (no SACK, no
delayed acks, no slow-start restart).  It exists to validate the fluid
model's sharing behaviour and to support ablation benchmarks.

Public entry point: :func:`repro.netsim.packet.simulation.simulate`.
"""
