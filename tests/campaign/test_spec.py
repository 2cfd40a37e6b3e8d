"""Tests for the frozen campaign spec layer (stages, arms, content keys)."""

import pytest

from repro.campaign import (
    AnalysisSettings,
    CampaignSpec,
    StageSpec,
    figure_is_seeded,
    figure_knobs,
)
from repro.experiments.figures import figures


class TestFigureTaxonomy:
    def test_lab_figures_take_noise(self):
        assert figure_knobs("fig2a") == {"noise"}
        assert figure_knobs("fig3") == {"noise"}

    def test_other_figures_take_quick(self):
        assert figure_knobs("fig5") == {"quick"}
        assert figure_knobs("topo_rtt") == {"quick"}
        assert figure_knobs("fleet") == {"quick"}

    def test_seeded_split(self):
        assert figure_is_seeded("fig2a")
        assert figure_is_seeded("topo_churn")
        assert figure_is_seeded("fleet")
        assert not figure_is_seeded("topo_rtt")
        assert not figure_is_seeded("topo_l4s")

    def test_a_figure_defined_twice_is_rejected(self, monkeypatch):
        import repro.experiments.figures as registry

        twice = ("lab_connections", "lab_connections")
        monkeypatch.setattr(registry, "FIGURE_MODULES", twice)
        with pytest.raises(ValueError, match="'fig2a' is defined twice"):
            figures.__wrapped__()  # the uncached body: the cache keeps every figure


class TestAnalysisSettings:
    def test_default_confidence(self):
        assert AnalysisSettings().confidence == 0.95

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_out_of_range_confidence_rejected(self, bad):
        with pytest.raises(ValueError, match="confidence"):
            AnalysisSettings(confidence=bad)


class TestStageSpec:
    def test_inapplicable_knob_rejected(self):
        with pytest.raises(ValueError, match="do not apply"):
            StageSpec(name="s", figure="fig2a", knobs={"quick": True}, seeds=(0,))
        with pytest.raises(ValueError, match="do not apply"):
            StageSpec(name="s", figure="topo_rtt", knobs={"noise": 0.1})

    def test_seeded_stage_requires_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            StageSpec(name="s", figure="fig2a", knobs={"noise": 0.1}, seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            StageSpec(name="s", figure="fig2a", seeds=(1, 1))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"stage 's': seeds must be >= 0, got -2"):
            StageSpec(name="s", figure="fig2a", seeds=(3, -2))

    def test_deterministic_stage_rejects_seeds(self):
        with pytest.raises(ValueError, match="deterministic"):
            StageSpec(name="s", figure="topo_rtt", seeds=(0,))

    def test_deterministic_stage_compiles_to_one_seedless_arm(self):
        stage = StageSpec(name="rtt", figure="topo_rtt", knobs={"quick": True})
        arms = stage.arms()
        assert len(arms) == 1
        assert arms[0].seed is None
        assert arms[0].params == {"figure": "topo_rtt", "quick": True}
        assert stage.deterministic

    def test_seeded_stage_compiles_one_arm_per_seed(self):
        stage = StageSpec(name="lab", figure="fig2a", knobs={"noise": 0.1}, seeds=(3, 5))
        arms = stage.arms()
        assert [arm.seed for arm in arms] == [3, 5]
        assert all(arm.params == {"figure": "fig2a", "noise": 0.1} for arm in arms)
        assert arms[0].label == "lab[seed=3]"


class TestCampaignSpec:
    def _campaign(self, **kwargs):
        defaults = dict(
            name="c",
            stages=(
                StageSpec(name="lab", figure="fig2a", knobs={"noise": 0.1}, seeds=(0, 1)),
                StageSpec(name="rtt", figure="topo_rtt", knobs={"quick": True}),
            ),
        )
        defaults.update(kwargs)
        return CampaignSpec(**defaults)

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage name"):
            CampaignSpec(
                name="c",
                stages=(
                    StageSpec(name="s", figure="fig2a", seeds=(0,)),
                    StageSpec(name="s", figure="fig2b", seeds=(0,)),
                ),
            )

    def test_arms_carry_stage_and_content_key(self):
        arms = self._campaign().arms()
        assert [(a.stage, a.seed) for a in arms] == [("lab", 0), ("lab", 1), ("rtt", None)]
        assert all(len(a.key) == 64 for a in arms)

    def test_content_key_stable_and_sensitive(self):
        campaign = self._campaign()
        assert campaign.content_key() == self._campaign().content_key()
        assert campaign.content_key() != self._campaign(name="other").content_key()
        reseeded = self._campaign(
            stages=(
                StageSpec(name="lab", figure="fig2a", knobs={"noise": 0.1}, seeds=(0, 2)),
                StageSpec(name="rtt", figure="topo_rtt", knobs={"quick": True}),
            )
        )
        assert campaign.content_key() != reseeded.content_key()

    def test_explicit_default_knob_keys_like_omitted_knob(self):
        # The inert-at-default contract: spelling out a knob at its task
        # default must produce the same *arm* content keys as omitting it.
        explicit = StageSpec(name="rtt", figure="topo_rtt", knobs={"quick": False})
        omitted = StageSpec(name="rtt", figure="topo_rtt", knobs={})
        keys = lambda stage: [  # noqa: E731
            arm.key
            for arm in CampaignSpec(name="c", stages=(stage,)).arms()
        ]
        assert keys(explicit) == keys(omitted)

    def test_arm_keys_match_sweep_spelling(self):
        # A campaign arm and the equivalent `repro sweep` spec are the
        # same computation, so they must share a cache entry.
        from repro.runner.spec import ScenarioSpec, content_key

        stage = StageSpec(name="lab", figure="fig2a", knobs={"noise": 0.02}, seeds=(7,))
        [arm] = CampaignSpec(name="c", stages=(stage,)).arms()
        sweep_spec = ScenarioSpec(
            task="figure.cells",
            params={"figure": "fig2a", "noise": 0.02},
            seed=7,
            label="sweep[fig2a, seed=7]",
        )
        assert arm.key == content_key(sweep_spec)

    def test_every_figure_compiles(self):
        for figure in figures():
            seeds = () if not figure_is_seeded(figure) else (0,)
            stage = StageSpec(name=figure, figure=figure, seeds=seeds)
            [arm] = stage.arms()
            assert arm.params["figure"] == figure
