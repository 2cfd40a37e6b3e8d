"""Experiment designs for congested networks.

Each design describes *how treatment allocation varies over links and days*
(an :class:`~repro.core.designs.base.AllocationPlan`) and *which cells of
the resulting data estimate which causal quantity* (a list of
:class:`~repro.core.designs.base.ComparisonSpec`).

Available designs:

* :class:`~repro.core.designs.paired_link.PairedLinkDesign` — the paper's
  Section 4 design: simultaneous 95 % / 5 % A/B tests on two parallel links.
* :class:`~repro.core.designs.switchback.SwitchbackDesign` — randomized
  treatment/control time intervals (Section 5.2).
* :class:`~repro.core.designs.event_study.EventStudyDesign` — a before/after
  deployment comparison (Section 5.1).
* :class:`~repro.core.designs.gradual_deployment.GradualDeploymentDesign` —
  a staged ramp of allocations usable to detect interference.

A design's comparisons become estimates through
:func:`repro.core.experiment.evaluate_comparisons`.  A naive A/B effect is
a comparison within one of these designs (``ab_<allocation>``), not a
design of its own.
"""
