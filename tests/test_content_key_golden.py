"""Literal content keys, pinned so refactors cannot silently re-key caches.

A content key names a cached result; if a refactor changes how a
figure's arm is spelled (task name, params, seed normalisation), every
existing cache entry and run directory stops matching.  The keys below
were captured from a known-good build at package version 2.0.0.
"""

from pathlib import Path

import pytest

from repro import __version__, api
from repro.experiments.paired_link import PairedLinkExperiment
from repro.workload.netflix import WorkloadConfig

ROOT = Path(__file__).resolve().parents[1]

#: figure -> (content key, label) of its default arm: knobs at their
#: defaults, seed 0 for seeded figures and no seed for deterministic ones.
DEFAULT_ARMS = {
    "fig2a": ("a4f920d26d501db349b6c8d8be8fea9152ab51d275318d7097dd1e2b8f292cbe", "fig2a[seed=0]"),
    "fig2b": ("8f9c5121989c58e44b72d2a6bbbb5f3a109d8c2054b10dd3cd2ad6e2d913ccac", "fig2b[seed=0]"),
    "fig3": ("612e4765fff9b40f0757d0239dbb63312381701ad02e58e6f8bf3194bb3d7770", "fig3[seed=0]"),
    "baseline": (
        "7201c8f4b8bc0b5a6f1afaac9e8ad3a55610d2def8dc42947932ce599adb07cb",
        "baseline[seed=0]",
    ),
    "fig5": ("9851152a4fefbdbdbbc3c66778b72a2920bd2754c3f8dc3c17597bd1e829dd20", "fig5[seed=0]"),
    "fig7": ("fe6623073a866fe5a5a451c50793e858241ce6df22c40be04d9d85df70f43a83", "fig7[seed=0]"),
    "fig8": ("5bd47455a90cc078dec5630b067f8348b1cc0ae248293269e6eadff699255d6a", "fig8[seed=0]"),
    "fig9": ("1e116ad74a99f2dc342fe61fc45ff17114c070b750fdcb89f9eea282062bebad", "fig9[seed=0]"),
    "fig10": ("5006e0cc5b652c4dc362f52ec7871891a00fa093a12c584ae1f284ae3db14f18", "fig10[seed=0]"),
    "topo_rtt": (
        "ac19af94f6cec9d261475ecfedde006e5a515cba871d7954d54daf113aab3346",
        "topo_rtt[deterministic]",
    ),
    "topo_aqm": (
        "524c1a9804f63ea528f34473fafc1f7f82bd82f1acf7cf155d26a4653507c22c",
        "topo_aqm[deterministic]",
    ),
    "topo_parking": (
        "bafd3c5ab0f9d9e4c4bfc3235944c794248e5c11a814fe0c0977e43341494692",
        "topo_parking[deterministic]",
    ),
    "topo_fq": (
        "84138c7013d3a2bec8f1aa103570d8d09e0e1c69cc91142b9a9cb3e2ee51b8e1",
        "topo_fq[deterministic]",
    ),
    "topo_churn": (
        "07d19f416417c81c8e69682a0bbfd0f8670003929c72626a2070bc3d46127c74",
        "topo_churn[seed=0]",
    ),
    "topo_l4s": (
        "c992579f97ca26367d5d71f0a9496006a1b47a12119a4ce1266014cbf8032b6b",
        "topo_l4s[deterministic]",
    ),
    "fleet": ("f001d2948c72776c1a6fade11c504cbc78e94432eb39fb9da422a21fcebd924f", "fleet[seed=0]"),
}

#: Campaign content key of ``examples/campaign_quick.yaml``.
CAMPAIGN_QUICK_KEY = "c95609d0a5b93a4f80552e0608261db9f63abff541c95044d27d51a86f2f1262"

#: label -> content key of the three workload weeks a quick seed-7
#: paired-link run submits to its executor.
PAIRED_LINK_TABLE_KEYS = {
    "paired_link[baseline]": "b3ab712fe9cf12e267a39c2547b0713bd25dc89c4165f1fbeb3c341bf7bfa556",
    "paired_link[experiment]": "39f89e2d2acd89538e20aaac0f65883f0927dffaeed218884001713932e82c6d",
    "paired_link[aa]": "a64d1ca51c227c8f512295dce2a654fa1128dbf7b41bee58a463da777f5121fb",
}


def test_keys_were_captured_at_this_version():
    assert __version__ == "2.0.0"


def test_every_figure_is_pinned_in_registry_order():
    assert tuple(DEFAULT_ARMS) == api.list_figures()


@pytest.mark.parametrize("figure", sorted(DEFAULT_ARMS))
def test_default_arm_key(figure):
    key, label = DEFAULT_ARMS[figure]
    spec = api.figure_spec(figure)
    assert (api.content_key(spec), spec.label) == (key, label)


def test_campaign_quick_key():
    campaign = api.load_campaign(ROOT / "examples" / "campaign_quick.yaml")
    assert campaign.content_key() == CAMPAIGN_QUICK_KEY


class _Submitted(Exception):
    """Raised by :class:`_RecordingExecutor` once it has the specs."""


class _RecordingExecutor:
    """Records the specs it is asked to map, then stops the run."""

    def __init__(self):
        self.specs = []

    def map(self, specs):
        self.specs = list(specs)
        raise _Submitted


def test_paired_link_table_keys():
    executor = _RecordingExecutor()
    experiment = PairedLinkExperiment(config=WorkloadConfig(sessions_at_peak=150, seed=7))
    with pytest.raises(_Submitted):
        experiment.run(executor=executor)
    keys = {spec.label: api.content_key(spec) for spec in executor.specs}
    assert keys == PAIRED_LINK_TABLE_KEYS
