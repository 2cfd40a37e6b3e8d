"""Tests for the `repro.api` facade — the package's compatibility surface."""

import pytest

from repro import api


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_all_is_sorted_and_duplicate_free(self):
        assert list(api.__all__) == sorted(set(api.__all__))

    def test_facade_names_are_the_canonical_objects(self):
        from repro.campaign import CampaignSpec, load_campaign, run_campaign
        from repro.runner import ResultCache, ScenarioSpec, content_key

        assert api.CampaignSpec is CampaignSpec
        assert api.load_campaign is load_campaign
        assert api.run_campaign is run_campaign
        assert api.ResultCache is ResultCache
        assert api.ScenarioSpec is ScenarioSpec
        assert api.content_key is content_key


class TestHelpers:
    def test_list_figures_matches_the_task_registry(self):
        from repro.experiments.figures import figures

        assert api.list_figures() == tuple(figures())
        assert "fig2a" in api.list_figures()
        assert "fleet" in api.list_figures()

    def test_figure_spec_builds_a_keyable_arm(self):
        spec = api.figure_spec("topo_rtt", quick=True)
        assert isinstance(spec, api.ScenarioSpec)
        assert spec.params == {"figure": "topo_rtt", "quick": True}
        assert len(api.content_key(spec)) == 64

    def test_figure_spec_unknown_figure(self):
        with pytest.raises(KeyError, match="unknown figure 'figZ'"):
            api.figure_spec("figZ")

    def test_figure_spec_rejects_a_negative_seed(self):
        # As ``--seed -1`` and a campaign file's seed -1 are rejected;
        # numpy's generators would fail on it only once the arm runs.
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            api.figure_spec("fig2a", seed=-1, noise=0.05)
        assert api.figure_spec("fig2a", seed=0, noise=0.05).seed == 0

    @pytest.mark.parametrize(
        ("figure", "knobs", "allowed"),
        [("fig2a", {"quick": True}, "noise"), ("fig5", {"noise": 0.1}, "quick")],
    )
    def test_figure_spec_inapplicable_knob_names_the_allowed_one(self, figure, knobs, allowed):
        # The same error a campaign stage raises for the same mistake.
        with pytest.raises(ValueError, match=rf"do not apply to figure '{figure}' "
                           rf"\(allowed: \['{allowed}'\]\)"):
            api.figure_spec(figure, **knobs)
        with pytest.raises(ValueError, match="do not apply"):
            api.StageSpec(name="s", figure=figure, knobs=knobs, seeds=(0,))


class TestEndToEnd:
    def test_parse_run_validate_through_the_facade(self, tmp_path):
        campaign = api.parse_campaign(
            {"campaign": "api-e2e", "stages": [{"figure": "topo_rtt", "quick": True}]}
        )
        cache = api.ResultCache(tmp_path / "cache")
        result = api.run_campaign(campaign, jobs=2, cache=cache, rundir=tmp_path / "RUN")
        assert result.unique_arms == 1
        assert result.cache_misses == 1
        report = api.validate_run(tmp_path / "RUN", campaign=campaign)
        assert report.ok
