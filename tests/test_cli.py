"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import figures


class TestParser:
    def test_known_figures_accepted(self):
        parser = build_parser()
        for name in figures():
            args = parser.parse_args([name])
            assert args.figure == name

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_quick_and_seed_flags(self):
        args = build_parser().parse_args(["fig5", "--quick", "--seed", "3"])
        assert args.quick is True
        assert args.seed == 3

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(["fig5", "--jobs", "4", "--cache"])
        assert args.jobs == 4
        assert args.cache is True

    def test_sweep_accepts_target(self):
        args = build_parser().parse_args(["sweep", "fig2a", "--replications", "3"])
        assert args.figure == "sweep"
        assert args.target == "fig2a"
        assert args.replications == 3


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out
        assert "fig5" in out
        assert "fleet" in out

    def test_lab_figure_command(self, capsys):
        assert main(["fig2a"]) == 0
        out = capsys.readouterr().out
        assert "TTE throughput" in out

    def test_paired_figure_command_quick(self, capsys):
        assert main(["fig9", "--quick", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "off-peak" in out
        assert "overall TTE" in out

    def test_topo_rtt_command_quick(self, capsys):
        assert main(["topo_rtt", "--quick", "--rtt-spread", "10,40"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous RTTs (10/40 ms)" in out
        assert "TTE throughput" in out

    def test_topo_aqm_command_quick(self, capsys):
        assert main(["topo_aqm", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "queue discipline: droptail" in out
        assert "queue discipline: codel" in out
        assert "bias" in out.lower()

    def test_topo_aqm_custom_disciplines(self, capsys):
        assert main(["topo_aqm", "--quick", "--disciplines", "droptail,red"]) == 0
        out = capsys.readouterr().out
        assert "queue discipline: red" in out
        assert "codel" not in out

    def test_topo_fq_command_quick(self, capsys):
        assert main(["topo_fq", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "queue discipline: droptail" in out
        assert "queue discipline: fq_codel" in out
        assert "bias" in out.lower()

    def test_topo_fq_custom_disciplines(self, capsys):
        argv = ["topo_fq", "--quick", "--disciplines", "droptail,codel,fq_codel"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "queue discipline: codel" in out
        assert "queue discipline: fq_codel" in out

    def test_topo_churn_command_quick(self, capsys):
        assert main(["topo_churn", "--quick", "--churn-rates", "0,3"]) == 0
        out = capsys.readouterr().out
        assert "churn intensity: 0 flows/s" in out
        assert "churn intensity: 3 flows/s" in out
        assert "mean FCT" in out
        # The second section: switchback vs event study under the ramp.
        assert "switchback" in out
        assert "event-study" in out
        assert "ground-truth" in out

    def test_invalid_churn_rates_rejected(self, capsys):
        for bad in ("abc", "", "1,-2", "2,2"):
            with pytest.raises(SystemExit):
                main(["topo_churn", "--quick", "--churn-rates", bad])
        assert "--churn-rates" in capsys.readouterr().err

    def test_topo_l4s_command_quick(self, capsys):
        assert main(["topo_l4s", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for arm in ("droptail", "codel-classic", "dualpi2-l4s", "fq_codel"):
            assert f"arm: {arm}" in out
        assert "bias" in out.lower()
        assert "coexistence" in out

    def test_topo_churn_traffic_split_variant(self, capsys):
        argv = ["topo_churn", "--quick", "--churn-rates", "0",
                "--traffic-split", "0.75"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "75%/25% intervals" in out
        assert "within-interval" in out

    def test_invalid_traffic_split_rejected(self, capsys):
        for bad in ("0.5", "1.2", "0.0"):
            with pytest.raises(SystemExit):
                main(["topo_churn", "--quick", "--traffic-split", bad])
        assert "--traffic-split" in capsys.readouterr().err

    def test_topo_parking_command_quick(self, capsys):
        assert main(["topo_parking", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "topology: single" in out
        assert "topology: parking" in out
        assert "cross-segment spillover" in out

    def test_topo_parking_invalid_segments_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["topo_parking", "--quick", "--segments", "3"])
        assert "--segments" in capsys.readouterr().err

    def test_fleet_command_small(self, capsys):
        argv = ["fleet", "--quick", "--units", "120", "--edges", "6",
                "--granularity", "edge", "--seed", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "120 units on 6 edge bottlenecks" in out
        assert "ground-truth TTE" in out
        assert "edge" in out
        assert "unit " not in out  # only the requested granularity runs

    def test_fleet_all_granularities(self, capsys):
        argv = ["fleet", "--quick", "--units", "80", "--edges", "4", "--seed", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for granularity in ("unit", "edge", "region"):
            assert granularity in out

    def test_fleet_invalid_sizes_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--quick", "--units", "0"])
        assert "--units" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fleet", "--quick", "--edges", "-2"])
        assert "--edges" in capsys.readouterr().err

    def test_fleet_edges_below_region_count_is_a_usage_error(self, capsys):
        # Four regions need four edges; this used to die in FleetSpec
        # with a ValueError traceback.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--quick", "--edges", "3"])
        assert exc.value.code == 2
        assert "--edges" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", ["nan", "inf"])
    def test_fleet_non_finite_probe_is_a_usage_error(self, probe, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--quick", "--units", "8", "--edges", "4", "--probe", probe])
        assert exc.value.code == 2
        assert "--probe" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_sweep_invalid_noise_is_a_usage_error(self, noise, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig2a", "--replications", "1", "--noise", noise])
        assert exc.value.code == 2
        assert "--noise" in capsys.readouterr().err

    def test_invalid_rtt_spread_rejected(self):
        with pytest.raises(SystemExit):
            main(["topo_rtt", "--quick", "--rtt-spread", "10,-4"])
        with pytest.raises(SystemExit):
            main(["topo_rtt", "--quick", "--rtt-spread", "abc"])

    def test_invalid_disciplines_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["topo_aqm", "--quick", "--disciplines", "bogus"])
        assert "--disciplines" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["topo_aqm", "--quick", "--disciplines", ""])


class TestParallelDeterminism:
    def test_lab_figure_same_output_jobs_1_vs_4(self, capsys):
        assert main(["fig2a", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig2a", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_paired_figure_same_output_jobs_1_vs_4(self, capsys):
        argv = ["fig9", "--quick", "--seed", "5"]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_topology_figure_same_output_jobs_1_vs_4(self, capsys):
        argv = ["topo_aqm", "--quick"]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    @pytest.mark.parametrize(
        "figure", ["topo_fq", "topo_parking", "topo_churn", "topo_l4s"]
    )
    def test_new_topology_figures_same_output_jobs_1_vs_4(self, figure, capsys):
        argv = [figure, "--quick"]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_fleet_same_output_jobs_1_vs_4(self, capsys):
        argv = ["fleet", "--quick", "--units", "120", "--edges", "6", "--seed", "2"]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_topology_figure_cached_rerun_identical(self, tmp_path, capsys):
        argv = ["topo_rtt", "--quick", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(tmp_path.glob("*.pkl"))) > 0
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_parking_figure_cached_rerun_identical(self, tmp_path, capsys):
        # Exercises content-keying of QueueConfig chains and cross-traffic
        # flow configs inside the scenario specs.
        argv = ["topo_parking", "--quick", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        entries = len(list(tmp_path.glob("*.pkl")))
        assert entries > 0
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(list(tmp_path.glob("*.pkl"))) == entries


class TestSweepCommand:
    def test_sweep_output_is_stable_across_runs(self, capsys):
        argv = [
            "sweep",
            "fig2a",
            "--replications",
            "3",
            "--noise",
            "0.05",
            "--seed",
            "2",
            "--jobs",
            "2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "mean" in first
        assert "tte_throughput_mbps" in first
        assert "seeds 2..4" in first

    def test_sweep_requires_known_target(self):
        with pytest.raises(SystemExit):
            main(["sweep"])
        with pytest.raises(SystemExit):
            main(["sweep", "not-a-figure"])

    def test_sweep_unknown_target_is_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "nosuch"])
        assert exc.value.code == 2
        assert "unknown figure 'nosuch'; choose one of fig2a, " in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2
        assert "'sweep' needs a figure to replicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--quick", "--seed", "-1"],
            ["fig2a", "--seed", "-1"],
            ["sweep", "fig2a", "--seed", "-5", "--replications", "2"],
        ],
        ids=["fig5", "fig2a", "sweep"],
    )
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    def test_stray_target_on_non_sweep_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig5", "fig10"])

    def test_inert_quick_flag_does_not_split_lab_sweep_cache(self, tmp_path, capsys):
        # Lab figures ignore --quick, so adding it must reuse the cached
        # arms rather than recompute under a different content key.
        argv = ["sweep", "fig2a", "--replications", "1", "--cache",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        entries = len(list(tmp_path.glob("*.pkl")))
        assert entries > 0
        assert main([*argv, "--quick"]) == 0
        assert len(list(tmp_path.glob("*.pkl"))) == entries
        capsys.readouterr()

    def test_list_mentions_sweepable_figures(self, capsys):
        assert main(["list"]) == 0
        assert "sweepable" in capsys.readouterr().out

    def test_topology_sweep_collapses_to_one_replication(self, capsys):
        # Topology figures ignore seeds, so asking for 3 replications must
        # run (and report) a single deterministic one.
        assert main(["sweep", "topo_rtt", "--quick", "--replications", "3"]) == 0
        out = capsys.readouterr().out
        assert "deterministic figure, 1 replication" in out
        assert "tte_throughput_mbps" in out

    def test_fq_sweep_reports_both_disciplines(self, capsys):
        assert main(["sweep", "topo_fq", "--quick", "--replications", "2"]) == 0
        out = capsys.readouterr().out
        assert "deterministic figure, 1 replication" in out
        assert "bias_throughput@0.5:droptail" in out
        assert "bias_throughput@0.5:fq_codel" in out

    def test_parking_sweep_reports_spillover_cell(self, capsys):
        assert main(["sweep", "topo_parking", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "bias_throughput@0.5:single" in out
        assert "bias_throughput@0.5:parking" in out
        assert "remote_spillover_mbps" in out

    def test_churn_sweep_keeps_seeded_replications(self, capsys):
        # topo_churn consumes the seed (arrivals, sizes), so the sweep
        # must NOT collapse it to one deterministic replication.
        argv = ["sweep", "topo_churn", "--quick", "--replications", "2",
                "--seed", "3", "--jobs", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 replication(s), seeds 3..4" in out
        assert "bias_throughput@0.5:churn0" in out
        assert "mean_fct_s:churn6" in out
        # The zero-churn cell ignores the seed, so its CI is exactly 0.
        for line in out.splitlines():
            if "bias_throughput@0.5:churn0" in line:
                assert "±0.000" in line

    def test_topology_sweep_seed_does_not_split_cache(self, tmp_path, capsys):
        argv = ["sweep", "topo_rtt", "--quick", "--cache",
                "--cache-dir", str(tmp_path)]
        assert main([*argv, "--seed", "1"]) == 0
        entries = len(list(tmp_path.glob("*.pkl")))
        assert entries > 0
        assert main([*argv, "--seed", "2"]) == 0
        assert len(list(tmp_path.glob("*.pkl"))) == entries
        capsys.readouterr()
