"""Tests for the campaign file loader (YAML/JSON → frozen CampaignSpec)."""

import json

import pytest

from repro.campaign import CampaignError, load_campaign, parse_campaign

MINIMAL = {"stages": [{"figure": "topo_rtt"}]}


def _yaml_file(tmp_path, text, name="camp.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCampaign:
    def test_yaml_round_trip(self, tmp_path):
        path = _yaml_file(
            tmp_path,
            """
            campaign: demo
            description: two stages
            analysis:
              confidence: 0.9
            defaults:
              quick: true
            stages:
              - figure: fig2a
                name: lab
                noise: 0.05
                seeds: [0, 1]
              - figure: topo_rtt
            """,
        )
        campaign = load_campaign(path)
        assert campaign.name == "demo"
        assert campaign.description == "two stages"
        assert campaign.analysis.confidence == 0.9
        assert [s.name for s in campaign.stages] == ["lab", "topo_rtt"]
        assert campaign.stages[0].knobs == {"noise": 0.05}
        assert campaign.stages[0].seeds == (0, 1)
        assert campaign.stages[1].knobs == {"quick": True}
        assert campaign.stages[1].seeds == ()

    def test_json_and_yaml_spellings_key_identically(self, tmp_path):
        doc = {
            "campaign": "same",
            "stages": [{"figure": "fig2a", "noise": 0.1, "seeds": [0]}],
        }
        ypath = _yaml_file(
            tmp_path,
            "campaign: same\nstages:\n  - figure: fig2a\n    noise: 0.1\n    seeds: [0]\n",
        )
        jpath = tmp_path / "camp.json"
        jpath.write_text(json.dumps(doc), encoding="utf-8")
        assert load_campaign(ypath).content_key() == load_campaign(jpath).content_key()

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = _yaml_file(tmp_path, "stages:\n  - figure: topo_rtt\n", name="nightly.yml")
        assert load_campaign(path).name == "nightly"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="not found"):
            load_campaign(tmp_path / "nope.yaml")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "camp.toml"
        path.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(CampaignError, match="unsupported campaign suffix"):
            load_campaign(path)

    def test_invalid_yaml(self, tmp_path):
        path = _yaml_file(tmp_path, "stages: [\n")
        with pytest.raises(CampaignError, match="invalid YAML"):
            load_campaign(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "camp.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(CampaignError, match="invalid JSON"):
            load_campaign(path)

    def test_errors_carry_the_path(self, tmp_path):
        path = _yaml_file(tmp_path, "stages:\n  - figure: nope\n")
        with pytest.raises(CampaignError, match=r"camp\.yaml.*unknown figure"):
            load_campaign(path)


class TestUnknownKeys:
    """Typos must fail the load at every nesting level."""

    def test_top_level(self):
        with pytest.raises(CampaignError, match=r"campaign: unknown key\(s\) \['stage'\]"):
            parse_campaign({"stage": []})

    def test_analysis(self):
        with pytest.raises(CampaignError, match=r"analysis: unknown key\(s\)"):
            parse_campaign({**MINIMAL, "analysis": {"confidenze": 0.9}})

    def test_defaults(self):
        with pytest.raises(CampaignError, match=r"defaults: unknown key\(s\)"):
            parse_campaign({**MINIMAL, "defaults": {"qwick": True}})

    def test_stage(self):
        with pytest.raises(CampaignError, match=r"stages\[0\]: unknown key\(s\)"):
            parse_campaign({"stages": [{"figure": "topo_rtt", "nois": 0.1}]})

    def test_sweep(self):
        with pytest.raises(CampaignError, match=r"sweep: unknown key\(s\)"):
            parse_campaign(
                {"stages": [{"figure": "topo_rtt", "sweep": {"speed": [1]}}]}
            )


class TestStructuralValidation:
    def test_document_must_be_mapping(self):
        with pytest.raises(CampaignError, match="must be a mapping"):
            parse_campaign([1, 2])

    @pytest.mark.parametrize("stages", [None, [], "fig2a"])
    def test_stages_must_be_nonempty_list(self, stages):
        with pytest.raises(CampaignError, match="non-empty list"):
            parse_campaign({"stages": stages})

    def test_unknown_figure_lists_choices(self):
        with pytest.raises(CampaignError, match="unknown figure 'figZ'.*fig2a"):
            parse_campaign({"stages": [{"figure": "figZ"}]})

    def test_bad_confidence_value(self):
        with pytest.raises(CampaignError, match="confidence"):
            parse_campaign({**MINIMAL, "analysis": {"confidence": "high"}})
        with pytest.raises(CampaignError, match="confidence"):
            parse_campaign({**MINIMAL, "analysis": {"confidence": 1.5}})

    def test_duplicate_stage_names(self):
        with pytest.raises(CampaignError, match="duplicate stage name"):
            parse_campaign(
                {"stages": [{"figure": "topo_rtt", "name": "s"},
                            {"figure": "topo_aqm", "name": "s"}]}
            )


class TestKnobs:
    def test_explicit_inapplicable_knob_is_an_error(self):
        with pytest.raises(CampaignError, match="does not apply"):
            parse_campaign({"stages": [{"figure": "topo_rtt", "noise": 0.1}]})
        with pytest.raises(CampaignError, match="does not apply"):
            parse_campaign({"stages": [{"figure": "fig2a", "quick": True}]})

    def test_inapplicable_default_knob_is_dropped(self):
        campaign = parse_campaign(
            {
                "defaults": {"quick": True, "noise": 0.2},
                "stages": [{"figure": "topo_rtt"}, {"figure": "fig2a"}],
            }
        )
        rtt, lab = campaign.stages
        assert rtt.knobs == {"quick": True}
        assert lab.knobs == {"noise": 0.2}

    def test_stage_knob_overrides_default(self):
        campaign = parse_campaign(
            {
                "defaults": {"noise": 0.2},
                "stages": [{"figure": "fig2a", "noise": 0.5}],
            }
        )
        assert campaign.stages[0].knobs == {"noise": 0.5}

    @pytest.mark.parametrize(
        "stage",
        [
            {"figure": "topo_rtt", "quick": "yes"},
            {"figure": "fig2a", "noise": "loud"},
            {"figure": "fig2a", "noise": -0.1},
            {"figure": "fig2a", "noise": True},
            {"figure": "fig2a", "noise": float("nan")},
            {"figure": "fig2a", "noise": float("inf")},
        ],
    )
    def test_bad_knob_values(self, stage):
        with pytest.raises(CampaignError):
            parse_campaign({"stages": [stage]})

    def test_yaml_nan_noise_is_rejected(self, tmp_path):
        # ``nan < 0`` is false, so a sign check alone let this through.
        path = _yaml_file(tmp_path, "stages:\n  - figure: fig2a\n    noise: .nan\n")
        with pytest.raises(CampaignError, match="noise"):
            load_campaign(path)


class TestSeedGrids:
    def test_seeds_and_replications_conflict(self):
        with pytest.raises(CampaignError, match="not both"):
            parse_campaign(
                {"stages": [{"figure": "fig2a", "seeds": [0], "replications": 2}]}
            )

    def test_conflicting_defaults(self):
        with pytest.raises(CampaignError, match="in defaults, not both"):
            parse_campaign(
                {
                    "defaults": {"seeds": [0], "replications": 2},
                    "stages": [{"figure": "fig2a"}],
                }
            )

    def test_replications_expand_from_base_seed(self):
        campaign = parse_campaign(
            {"stages": [{"figure": "fig2a", "replications": 3, "base_seed": 10}]}
        )
        assert campaign.stages[0].seeds == (10, 11, 12)

    def test_default_grid_is_single_seed_zero(self):
        campaign = parse_campaign({"stages": [{"figure": "fig2a"}]})
        assert campaign.stages[0].seeds == (0,)

    def test_defaults_supply_the_grid_and_stage_overrides(self):
        campaign = parse_campaign(
            {
                "defaults": {"replications": 2},
                "stages": [{"figure": "fig2a"}, {"figure": "fig2b", "seeds": [7]}],
            }
        )
        assert campaign.stages[0].seeds == (0, 1)
        assert campaign.stages[1].seeds == (7,)

    def test_deterministic_figures_collapse_to_seed_free(self):
        campaign = parse_campaign(
            {
                "defaults": {"replications": 5},
                "stages": [{"figure": "topo_rtt"}],
            }
        )
        assert campaign.stages[0].seeds == ()
        assert len(campaign.stages[0].arms()) == 1

    @pytest.mark.parametrize("bad", [["a"], [True], 1])
    def test_bad_seed_values(self, bad):
        with pytest.raises(CampaignError):
            parse_campaign({"stages": [{"figure": "fig2a", "seeds": bad}]})

    @pytest.mark.parametrize(
        ("stage", "field"),
        [
            ({"figure": "fig2a", "noise": 0.05, "seeds": [-1]}, "seeds"),
            ({"figure": "fig5", "base_seed": -3}, "base_seed"),
            ({"figure": "topo_rtt", "seeds": [-1]}, "seeds"),
        ],
    )
    def test_negative_seeds_rejected(self, stage, field):
        with pytest.raises(CampaignError, match=f"{field}: seeds must be >= 0"):
            parse_campaign({"stages": [stage]})

    def test_zero_replications_rejected(self):
        with pytest.raises(CampaignError, match=">= 1"):
            parse_campaign({"stages": [{"figure": "fig2a", "replications": 0}]})


class TestSweep:
    def test_cross_product_and_naming(self):
        campaign = parse_campaign(
            {
                "stages": [
                    {
                        "figure": "fig2a",
                        "name": "lab",
                        "seeds": [0],
                        "sweep": {"noise": [0.0, 0.1]},
                    }
                ]
            }
        )
        assert [s.name for s in campaign.stages] == ["lab[noise=0.0]", "lab[noise=0.1]"]
        assert campaign.stages[0].knobs == {"noise": 0.0}

    def test_bool_sweep_values_render_lowercase(self):
        campaign = parse_campaign(
            {"stages": [{"figure": "topo_rtt", "sweep": {"quick": [True, False]}}]}
        )
        assert [s.name for s in campaign.stages] == [
            "topo_rtt[quick=true]",
            "topo_rtt[quick=false]",
        ]

    def test_fixed_and_swept_knob_conflict(self):
        with pytest.raises(CampaignError, match="both fixed and swept"):
            parse_campaign(
                {
                    "stages": [
                        {"figure": "fig2a", "noise": 0.1, "sweep": {"noise": [0.2]}}
                    ]
                }
            )

    def test_inapplicable_swept_knob(self):
        with pytest.raises(CampaignError, match="does not apply"):
            parse_campaign(
                {"stages": [{"figure": "topo_rtt", "sweep": {"noise": [0.1]}}]}
            )

    def test_empty_sweep_values(self):
        with pytest.raises(CampaignError, match="empty value list"):
            parse_campaign({"stages": [{"figure": "topo_rtt", "sweep": {"quick": []}}]})


class TestDeterminism:
    def test_parsing_twice_yields_identical_arms(self):
        doc = {
            "campaign": "det",
            "defaults": {"quick": True},
            "stages": [
                {"figure": "fig2a", "noise": 0.05, "replications": 3},
                {"figure": "topo_rtt"},
                {"figure": "topo_churn", "seeds": [4, 2]},
            ],
        }
        first = parse_campaign(doc)
        second = parse_campaign(json.loads(json.dumps(doc)))
        assert first == second
        assert first.content_key() == second.content_key()
        assert [a.key for a in first.arms()] == [a.key for a in second.arms()]

    def test_explicit_default_knob_keys_like_omitted(self):
        # Inert-at-default: spelling ``quick: false`` (the task default)
        # must not perturb the arm content keys.
        bare = parse_campaign({"stages": [{"figure": "topo_rtt"}]})
        spelled = parse_campaign({"stages": [{"figure": "topo_rtt", "quick": False}]})
        assert [a.key for a in bare.arms()] == [a.key for a in spelled.arms()]
