"""Tests for the dynamic-traffic subsystem (sizes, arrivals, demand,
sources through the simulator)."""

import random

import pytest

from repro.netsim.packet.simulation import FlowConfig, PacketSimResult, simulate
from repro.netsim.traffic import (
    ConstantDemand,
    DynamicTrafficResult,
    FixedSizes,
    ParetoSizes,
    PoissonArrivals,
    RampDemand,
    TraceArrivals,
    TrafficSource,
)


class TestSizeSamplers:
    def test_fixed_sizes_degenerate(self):
        sampler = FixedSizes(1234.0)
        rng = random.Random(0)
        assert sampler.sample(rng) == 1234.0
        assert sampler.mean_bytes() == 1234.0

    def test_pareto_respects_floor_and_mean(self):
        sampler = ParetoSizes(min_bytes=10_000.0, alpha=2.5)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(4000)]
        assert min(draws) >= 10_000.0
        empirical = sum(draws) / len(draws)
        assert empirical == pytest.approx(sampler.mean_bytes(), rel=0.1)

    def test_pareto_heavy_tail_mean_infinite_at_alpha_1(self):
        assert ParetoSizes(min_bytes=1.0, alpha=0.9).mean_bytes() == float("inf")

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            FixedSizes(-1.0)
        with pytest.raises(ValueError):
            ParetoSizes(min_bytes=0.0)
        with pytest.raises(ValueError):
            ParetoSizes(alpha=0.0)

    def test_samplers_deterministic_given_rng(self):
        sampler = ParetoSizes(10_000.0, 1.5)
        a = [sampler.sample(random.Random(7)) for _ in range(10)]
        b = [sampler.sample(random.Random(7)) for _ in range(10)]
        assert a == b

    def test_pareto_median(self):
        # P(X > x) = (min / x)^alpha, so the median is min * 2^(1/alpha).
        sampler = ParetoSizes(min_bytes=10_000.0, alpha=1.2)
        rng = random.Random(4)
        draws = sorted(sampler.sample(rng) for _ in range(4001))
        assert draws[2000] == pytest.approx(10_000.0 * 2 ** (1 / 1.2), rel=0.05)


class TestArrivalProcesses:
    def test_poisson_rate_approximately_respected(self):
        process = PoissonArrivals(rate_per_s=5.0)
        times = process.arrival_times(random.Random(0), 400.0)
        assert len(times) == pytest.approx(2000, rel=0.1)
        assert all(0.0 <= t < 400.0 for t in times)
        assert times == sorted(times)

    def test_zero_rate_never_arrives(self):
        assert PoissonArrivals(0.0).arrival_times(random.Random(0), 100.0) == []

    def test_zero_horizon_never_arrives(self):
        assert PoissonArrivals(5.0).arrival_times(random.Random(0), 0.0) == []

    def test_zero_demand_never_arrives(self):
        process = PoissonArrivals(5.0)
        assert process.arrival_times(random.Random(0), 100.0, ConstantDemand(0.0)) == []

    def test_constant_demand_scales_rate(self):
        process = PoissonArrivals(rate_per_s=5.0)
        times = process.arrival_times(random.Random(2), 400.0, ConstantDemand(2.0))
        assert len(times) == pytest.approx(4000, rel=0.1)

    def test_thinning_follows_ramp_integral(self):
        # Rate 10/s under a 1x -> 3x ramp over [0, 100]: the expected
        # count is 10 * integral of the multiplier = 10 * 200.
        process = PoissonArrivals(rate_per_s=10.0)
        demand = RampDemand(start_level=1.0, end_level=3.0, t0=0.0, t1=100.0)
        times = process.arrival_times(random.Random(3), 100.0, demand)
        assert len(times) == pytest.approx(2000, rel=0.1)
        first_half = sum(1 for t in times if t < 50.0)
        # The multiplier rises from 1 to 2 over [0, 50]: 75 of the 200.
        assert first_half / len(times) == pytest.approx(75.0 / 200.0, abs=0.04)

    def test_poisson_demand_modulation_shifts_mass(self):
        # Demand ramps from 0.2x to 3x around the halfway mark: the
        # second half must carry ~15x the arrivals of the first.
        process = PoissonArrivals(rate_per_s=4.0)
        demand = RampDemand(start_level=0.2, end_level=3.0, t0=99.0, t1=101.0)
        times = process.arrival_times(random.Random(1), 200.0, demand)
        early = sum(1 for t in times if t < 100.0)
        late = len(times) - early
        assert late > 8 * early

    def test_trace_replayed_within_horizon(self):
        process = TraceArrivals((0.5, 2.0, 7.5, 11.0))
        assert process.arrival_times(random.Random(0), 10.0) == [0.5, 2.0, 7.5]

    def test_trace_sorted_and_validated(self):
        assert TraceArrivals((3.0, 1.0)).times == (1.0, 3.0)
        with pytest.raises(ValueError):
            TraceArrivals((-1.0,))

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_trace_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError):
            TraceArrivals((1.0, bad))

    def test_trace_ignores_demand(self):
        process = TraceArrivals((0.5, 2.0))
        assert process.arrival_times(random.Random(0), 10.0, ConstantDemand(0.0)) == [0.5, 2.0]

    def test_arrivals_deterministic_given_rng(self):
        process = PoissonArrivals(3.0)
        a = process.arrival_times(random.Random(5), 50.0)
        b = process.arrival_times(random.Random(5), 50.0)
        assert a == b

    def test_process_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0)


class TestDemandProfiles:
    def test_constant(self):
        profile = ConstantDemand(1.5)
        assert profile.multiplier(0.0) == 1.5
        assert profile.max_multiplier(100.0) == 1.5

    def test_ramp_interpolates(self):
        profile = RampDemand(start_level=1.0, end_level=3.0, t0=10.0, t1=20.0)
        assert profile.multiplier(0.0) == 1.0
        assert profile.multiplier(15.0) == pytest.approx(2.0)
        assert profile.multiplier(30.0) == 3.0
        assert profile.max_multiplier(12.0) >= profile.multiplier(12.0)

    @pytest.mark.parametrize("levels", [(1.0, 3.0), (3.0, 1.0)])
    def test_ramp_envelope_dominates_horizon(self, levels):
        # Thinning is exact only if max_multiplier bounds the profile on
        # the whole horizon, for rising and falling ramps alike.
        profile = RampDemand(start_level=levels[0], end_level=levels[1], t0=10.0, t1=20.0)
        for horizon in (5.0, 15.0, 30.0):
            envelope = profile.max_multiplier(horizon)
            grid = [horizon * i / 100 for i in range(101)]
            assert envelope >= max(profile.multiplier(t) for t in grid)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ConstantDemand(-1.0)
        with pytest.raises(ValueError):
            RampDemand(start_level=-1.0)
        with pytest.raises(ValueError):
            RampDemand(end_level=-1.0)
        with pytest.raises(ValueError):
            RampDemand(t0=5.0, t1=5.0)


class TestDynamicTrafficResult:
    def test_no_completions_have_no_fct(self):
        stats = DynamicTrafficResult("bg", flows_started=3)
        assert stats.mean_fct_s() is None
        assert stats.p95_fct_s() is None

    def test_fct_summaries_nearest_rank(self):
        stats = DynamicTrafficResult(
            "bg", completion_times_s=tuple(float(t) for t in range(20, 0, -1))
        )
        assert stats.mean_fct_s() == pytest.approx(10.5)
        assert stats.p95_fct_s() == 19.0

    def test_single_completion_is_its_own_p95(self):
        stats = DynamicTrafficResult("bg", completion_times_s=(0.25,))
        assert stats.p95_fct_s() == 0.25

    def test_p95_matches_the_pooled_percentile(self):
        # Both are nearest rank, ceil(0.95 n); with completions 1..11 s a
        # rounded rank, int(0.95 n + 0.5), would give 10.0 against 11.0.
        for n in range(1, 61):
            stats = DynamicTrafficResult(
                "bg", completion_times_s=tuple(float(t) for t in range(n, 0, -1))
            )
            pooled = PacketSimResult(
                flows=[],
                duration_s=1.0,
                capacity_mbps=1.0,
                total_drops=0,
                max_queue_occupancy_bytes=0.0,
                traffic={"bg": stats},
            )
            assert stats.p95_fct_s() == pooled.dynamic_fct_percentile(95.0), n


class TestTrafficSourceValidation:
    def test_non_positive_rtt_rejected(self):
        with pytest.raises(ValueError):
            TrafficSource(arrivals=PoissonArrivals(1.0), sizes=FixedSizes(1.0), rtt_ms=0.0)

    def test_unknown_ecn_mode_rejected(self):
        with pytest.raises(ValueError):
            TrafficSource(arrivals=PoissonArrivals(1.0), sizes=FixedSizes(1.0), ecn="dctcp")


class TestTrafficSourceThroughSimulate:
    def _run(self, seed=3, **kwargs):
        source = TrafficSource(
            arrivals=PoissonArrivals(3.0),
            sizes=FixedSizes(60_000.0),
            label="bg",
            **kwargs,
        )
        return simulate(
            [FlowConfig(0)],
            capacity_mbps=20.0,
            duration_s=8.0,
            warmup_s=2.0,
            traffic_sources=[source],
            seed=seed,
        )

    def test_dynamic_flows_spawn_complete_and_report(self):
        result = self._run()
        stats = result.traffic["bg"]
        assert stats.flows_started > 10
        assert 0 < stats.flows_completed <= stats.flows_started
        assert len(stats.completion_times_s) == stats.flows_completed
        assert all(fct > 0 for fct in stats.completion_times_s)
        assert stats.bytes_acked > 0
        assert stats.mean_fct_s() > 0
        assert stats.p95_fct_s() >= stats.mean_fct_s() * 0.5

    def test_dynamic_flows_are_unmeasured(self):
        result = self._run()
        assert [f.flow_id for f in result.flows] == [0]

    def test_churn_contends_with_measured_flow(self):
        quiet = simulate(
            [FlowConfig(0)], capacity_mbps=20.0, duration_s=8.0, warmup_s=2.0
        )
        churny = self._run()
        assert (
            churny.flow(0).throughput_mbps < 0.95 * quiet.flow(0).throughput_mbps
        )

    def test_seeded_runs_bit_identical(self):
        assert self._run(seed=11) == self._run(seed=11)

    def test_different_seeds_differ(self):
        assert self._run(seed=11) != self._run(seed=12)

    def test_aggregate_helpers(self):
        result = self._run()
        started, completed = result.dynamic_flow_counts()
        assert started == result.traffic["bg"].flows_started
        assert completed == result.traffic["bg"].flows_completed
        assert result.mean_dynamic_fct_s() == result.traffic["bg"].mean_fct_s()

    def test_no_sources_keeps_result_static(self):
        static = simulate(
            [FlowConfig(0)], capacity_mbps=20.0, duration_s=6.0, warmup_s=2.0
        )
        empty = simulate(
            [FlowConfig(0)],
            capacity_mbps=20.0,
            duration_s=6.0,
            warmup_s=2.0,
            traffic_sources=[],
        )
        assert static == empty
        assert static.traffic == {}
        assert static.mean_dynamic_fct_s() is None

    def test_duplicate_labels_rejected(self):
        source = TrafficSource(
            arrivals=PoissonArrivals(1.0), sizes=FixedSizes(1000.0), label="x"
        )
        with pytest.raises(ValueError, match="label"):
            simulate(
                [FlowConfig(0)],
                capacity_mbps=10.0,
                duration_s=2.0,
                warmup_s=1.0,
                traffic_sources=[source, source],
            )

    def test_unknown_queue_in_source_path_rejected(self):
        from repro.netsim.packet.network import PathConfig

        source = TrafficSource(
            arrivals=PoissonArrivals(1.0),
            sizes=FixedSizes(1000.0),
            path=PathConfig(queues=("nope",)),
        )
        with pytest.raises(KeyError, match="nope"):
            simulate(
                [FlowConfig(0)],
                capacity_mbps=10.0,
                duration_s=2.0,
                warmup_s=1.0,
                traffic_sources=[source],
            )

    def test_demand_ramp_modulates_spawn_rate(self):
        low = self._run(demand=ConstantDemand(0.3))
        high = self._run(demand=ConstantDemand(3.0))
        assert (
            high.traffic["bg"].flows_started > 3 * low.traffic["bg"].flows_started
        )

    def test_sources_travel_through_sweep_specs(self):
        # Content-keying: a traffic source must survive canonicalization
        # inside a ScenarioSpec (frozen dataclasses all the way down).
        from repro.runner.spec import ScenarioSpec, content_key

        source = TrafficSource(
            arrivals=PoissonArrivals(2.0),
            sizes=ParetoSizes(40_000.0, 1.5),
            demand=RampDemand(1.0, 2.0, 0.0, 5.0),
        )
        spec = ScenarioSpec(
            task="netsim.packet_arm",
            params={
                "flows": (FlowConfig(0),),
                "capacity_mbps": 20.0,
                "base_rtt_ms": 20.0,
                "buffer_bdp": 1.0,
                "duration_s": 4.0,
                "warmup_s": 1.0,
                "traffic_sources": (source,),
            },
            seed=5,
        )
        assert content_key(spec) == content_key(spec)
        result = spec.run()
        assert "source0" in result.traffic
