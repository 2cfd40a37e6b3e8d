"""repro: reproduction of "Unbiased Experiments in Congested Networks" (IMC 2021).

The package is organised in layers, each importing only from itself and
the layers below it (``repro lint`` rule LAY001 checks the order; see
``docs/architecture.md``).  From the bottom up:

``repro.core``
    The paper's primary contribution: a potential-outcomes framework for
    network experiments, experiment designs (naive A/B, paired link,
    switchback, event study, gradual deployment, A/A), and the statistical
    analysis pipeline (hourly aggregation, fixed-effect regression,
    Newey-West standard errors, interference diagnostics).  Beside it at
    the bottom sit ``repro.obs`` (tracing, probes, profiling),
    ``repro.reporting`` (text tables) and ``repro.devtools`` (the
    invariant linter).

``repro.runner``
    Content-keyed parallel execution of scenario specs.

``repro.workload``
    The production substrate: a synthetic Netflix-like paired-link video
    workload with diurnal demand, congestion, ABR and QoE outcome models.

``repro.netsim``
    The lab substrate: a fluid bottleneck-sharing simulator and a
    packet-level discrete-event simulator with Reno, Cubic, BBR and pacing
    on a composable topology — pluggable queue disciplines (drop-tail,
    RED, CoDel, FQ-CoDel with the RFC 8290 new-flow priority list), ECN
    marking, per-flow RTTs, lossy path segments, multi-queue parking-lot
    chains (optionally with heterogeneous per-segment capacities),
    unmeasured cross traffic, and a dynamic-traffic subsystem
    (``repro.netsim.traffic``): finite transfers with flow-completion
    times, Poisson/on-off/trace arrival processes with heavy-tailed flow
    sizes, and time-varying demand profiles.

``repro.experiments``
    End-to-end harnesses that re-run every experiment in the paper and
    return the rows/series behind each figure.

``repro.campaign``
    Declarative multi-figure campaigns (``repro run campaign.yaml``).

``repro.api`` and ``repro.cli``
    The stable programmatic facade and the ``repro`` command line.
"""

__version__ = "2.0.0"

__all__ = ["__version__"]
