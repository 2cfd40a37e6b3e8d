"""Network simulation substrates.

Two simulators back the lab experiments of Section 3:

``repro.netsim.fluid``
    A fluid (steady-state) bottleneck-sharing model.  Each application's
    long-term throughput share is computed from well-established fairness
    results (Reno's per-connection fairness, paced-vs-unpaced competition,
    BBR's aggregate share against loss-based traffic), and retransmission
    rates follow the TCP loss-throughput relationship.  This is the fast
    substrate used by the figure-reproduction benchmarks.

``repro.netsim.packet``
    A packet-level discrete-event simulator with a drop-tail bottleneck
    queue and simplified Reno, Cubic and BBR senders (optionally paced).
    It reproduces the same sharing behaviour from first principles and is
    used for validation and ablation benchmarks.

``repro.netsim.traffic``
    The dynamic-traffic subsystem layered on the packet simulator:
    finite transfers (flow-completion times), arrival processes
    (Poisson, on/off bursts, traces) with heavy-tailed size samplers,
    and time-varying demand profiles that modulate churn intensity.
"""
