"""Fluid bottleneck-sharing simulator.

The lab testbed of Section 3 (two servers, a Tofino switch, a 10 Gb/s
bottleneck with a 1-BDP buffer and 1 ms of added delay) is replaced by a
steady-state model of how long-lived flows share a single bottleneck:

* :mod:`repro.netsim.fluid.link` — the bottleneck link.
* :mod:`repro.netsim.fluid.application` — applications (units) and their
  transport configuration: congestion control algorithm, number of
  parallel connections, pacing.
* :mod:`repro.netsim.fluid.competition` — the bandwidth-sharing and loss
  models.
* :mod:`repro.netsim.fluid.lab` — the A/B-sweep harness that recreates the
  paper's Figures 2 and 3.
"""
