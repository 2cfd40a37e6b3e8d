"""End-to-end reproductions of every experiment in the paper.

Each module runs one of the paper's experiments on the corresponding
substrate and returns the rows/series behind the paper's figures:

* :mod:`repro.experiments.lab_connections` — Figure 2a (parallel
  connections).
* :mod:`repro.experiments.lab_pacing` — Figure 2b (pacing).
* :mod:`repro.experiments.lab_cc` — Figure 3 (Cubic vs BBR).
* :mod:`repro.experiments.lab_topology` — beyond-the-paper topology
  scenarios: A/B bias under heterogeneous RTTs and under AQM (CoDel/RED)
  vs drop-tail, on the packet-level simulator.
* :mod:`repro.experiments.lab_parking_lot` — beyond-the-paper topology
  scenarios: multi-bottleneck parking lots with unmeasured cross traffic
  (bias amplification, cross-segment spillover) and per-flow FQ-CoDel
  (the paper's bias-elimination prediction).
* :mod:`repro.experiments.lab_churn` — dynamic-traffic scenarios: the
  A/B bias as a function of short-flow churn intensity, and a
  switchback-vs-event-study comparison under a ramping demand profile.
* :mod:`repro.experiments.lab_l4s` — the L4S lab: the connection-count
  bias under drop-tail vs classic-ECN CoDel vs the DualPI2/DCTCP L4S
  stack vs FQ-CoDel (signal-based vs scheduling-based sharing), plus a
  classic/L4S coexistence arm on one DualPI2 bottleneck.
* :mod:`repro.experiments.lab_fleet` — the fleet experiment: the A/B
  bias vs assignment cluster size (unit / edge / region) on the sharded
  packet/fluid hybrid at five-figure unit counts.
* :mod:`repro.experiments.baseline_validation` — the Section 4.1 baseline
  link-similarity table.
* :mod:`repro.experiments.paired_link` — the Section 4 bitrate-capping
  experiment (Figures 5-9 and 13).
* :mod:`repro.experiments.alternate_designs` — the Section 5 emulated
  switchback and event study (Figures 10-12) and the A/A calibration.

A module that defines figures declares them in its ``FIGURES`` tuple.
:mod:`repro.experiments.figures` names those modules once, in the order
``repro list`` shows them, and is the one registry the CLI, sweeps,
campaigns and :mod:`repro.api` read.
"""
