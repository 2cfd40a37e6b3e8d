"""Synthetic production workload: a Netflix-like paired-link video service.

The paper's Section 4 experiment runs on two reliably congested 100 Gb/s
peering links carrying millions of video sessions.  This subpackage
replaces that proprietary substrate with a synthetic equivalent that
preserves the mechanism under study:

* demand follows a diurnal curve with congested peak hours
  (:mod:`repro.workload.demand`);
* bitrate capping reduces the offered load of treated sessions
  (:mod:`repro.workload.video`);
* each link-hour's congestion state is a function of the aggregate offered
  load on that link (:mod:`repro.workload.congestion`) — which is exactly
  why treated and control sessions sharing a link interfere;
* per-session QoE and network metrics are generated from the congestion
  state, the session's own treatment, and per-link / per-account
  heterogeneity (:mod:`repro.workload.qoe`);
* :mod:`repro.workload.netflix` assembles everything into the paired-link
  session generator consumed by the experiment harnesses.
"""
