"""Each paired-link figure runs only the week and the estimates it reads.

Every paired-link figure reduces one ``PairedLinkExperiment`` run.
``baseline`` reads only the baseline week and fig5, fig7, fig8, fig9 and
fig10 only the experiment week, so each submits that one week to its
executor, under the content key the full protocol gives it
(``PAIRED_LINK_TABLE_KEYS``, a quick seed-7 run).  Each figure's cells
then run ``analyze_metric`` only for the comparisons they read: fig5
the four Figure 5 estimands, fig9 the TTE of its one metric
(``retransmit_fraction``), fig10 the TTE and its two emulated day
splits, and ``baseline`` the link-1 vs link-2 comparison.
"""

import argparse
import inspect
import sys
from collections import Counter

import pytest

import repro.core.analysis.pipeline as pipeline
from repro import api
from repro.experiments.figures import figures, get_figure
from test_content_key_golden import PAIRED_LINK_TABLE_KEYS, _RecordingExecutor, _Submitted

#: figure -> the one workload week it generates.
FIGURE_WEEKS = {
    "baseline": "baseline",
    "fig5": "experiment",
    "fig7": "experiment",
    "fig8": "experiment",
    "fig9": "experiment",
    "fig10": "experiment",
}

#: figure -> estimand -> ``analyze_metric`` calls one ``cells`` call makes.
ANALYSES = {
    "baseline": {"baseline_link1_vs_link2": 10},
    "fig5": {"tte": 10, "spillover": 10, "ab_0.95": 10, "ab_0.05": 10},
    "fig7": {},
    "fig8": {},
    "fig9": {"tte": 1},
    "fig10": {"tte": 10, "tte_emulated": 20},
}


def test_every_paired_link_figure_is_listed():
    paired = [name for name, figure in figures().items() if figure.group == "paired-link"]
    assert paired == list(FIGURE_WEEKS) == list(ANALYSES)


@pytest.mark.parametrize("figure", FIGURE_WEEKS)
def test_render_submits_only_its_week(figure):
    executor = _RecordingExecutor()
    args = argparse.Namespace(quick=True, seed=7)
    with pytest.raises(_Submitted):
        get_figure(figure).render(args, argparse.ArgumentParser(), executor)
    label = f"paired_link[{FIGURE_WEEKS[figure]}]"
    keys = {spec.label: api.content_key(spec) for spec in executor.specs}
    assert keys == {label: PAIRED_LINK_TABLE_KEYS[label]}


@pytest.fixture
def analyses(monkeypatch):
    """Counts ``analyze_metric`` calls by estimand, wherever it is bound."""
    original = pipeline.analyze_metric
    signature = inspect.signature(original)
    counts: Counter[str] = Counter()

    def counted(*args, **kwargs):
        counts[signature.bind(*args, **kwargs).arguments["estimand"]] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "analyze_metric", None) is original:
            monkeypatch.setattr(module, "analyze_metric", counted)
    return counts


@pytest.mark.parametrize("figure", ANALYSES)
def test_cells_analyze_only_what_they_read(figure, analyses):
    get_figure(figure).cells(True, 7)
    assert dict(analyses) == ANALYSES[figure]
