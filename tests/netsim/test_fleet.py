"""Tests for the sharded packet/fluid fleet engine.

Pins the contracts the fleet layer is built on: deterministic balanced
assignment, the two-pass fluid coupling, non-mutating O(cells)
aggregation, content-key dedupe of identical shards, bit-identical
merged statistics for any ``jobs`` value, and sketch percentiles within
tolerance of the exact per-unit values.
"""

import pickle

import numpy as np
import pytest

from repro.netsim.fleet import (
    CellStats,
    FleetSpec,
    ShardStats,
    cell_key,
    couple_fleet,
    fleet_assignment,
    run_fleet,
    shard_simulation,
    shard_specs,
)
from repro.runner import ParallelExecutor, content_key

#: A congested fleet small enough for unit tests: 6 edges in 2 regions,
#: 10 units each, region links oversubscribed (the default 0.7).
SMALL = FleetSpec(units=60, edges=6, regions=2, duration_s=1.5, warmup_s=0.5, seed=3)

#: An uncongested variant: region links and backbone overprovisioned, so
#: no shard consumes a seed and homogeneous shards dedupe aggressively.
UNCONGESTED = FleetSpec(
    units=60,
    edges=6,
    regions=2,
    region_oversubscription=1.5,
    backbone_oversubscription=1.5,
    rtt_profile_ms=(20.0,),
    duration_s=1.5,
    warmup_s=0.5,
    seed=3,
)


class TestFleetSpec:
    def test_validation_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            FleetSpec(units=0, edges=1)
        with pytest.raises(ValueError):
            FleetSpec(units=4, edges=8)  # more edges than units
        with pytest.raises(ValueError):
            FleetSpec(units=8, edges=4, regions=5)  # more regions than edges
        with pytest.raises(ValueError):
            FleetSpec(units=8, edges=4, granularity="continent")
        with pytest.raises(ValueError):
            FleetSpec(units=8, edges=4, allocation=1.5)
        with pytest.raises(ValueError):
            FleetSpec(units=8, edges=4, duration_s=1.0, warmup_s=2.0)

    def test_units_spread_evenly_over_edges(self):
        spec = FleetSpec(units=11, edges=3, regions=1)
        counts = [spec.units_on_edge(e) for e in range(3)]
        assert counts == [4, 4, 3]
        assert sum(counts) == spec.units
        firsts = [spec.first_unit_on_edge(e) for e in range(3)]
        assert firsts == [0, 4, 8]

    def test_regions_are_contiguous_blocks_covering_every_edge(self):
        spec = FleetSpec(units=100, edges=10, regions=3)
        regions = [spec.region_of(e) for e in range(10)]
        assert regions == sorted(regions)
        assert set(regions) == {0, 1, 2}

    @pytest.mark.parametrize("edges, regions", [(10, 3), (7, 7), (9, 1), (16, 5)])
    def test_region_blocks_differ_in_size_by_at_most_one(self, edges, regions):
        spec = FleetSpec(units=edges, edges=edges, regions=regions)
        sizes = [0] * regions
        for e in range(edges):
            sizes[spec.region_of(e)] += 1
        assert sum(sizes) == edges
        assert max(sizes) - min(sizes) <= 1

    def test_edge_rtt_cycles_through_profile(self):
        spec = FleetSpec(units=50, edges=5, rtt_profile_ms=(10.0, 30.0))
        assert [spec.edge_rtt_ms(e) for e in range(5)] == [10.0, 30.0, 10.0, 30.0, 10.0]

    def test_cluster_size_by_granularity(self):
        base = dict(units=100, edges=10, regions=2)
        assert FleetSpec(granularity="unit", **base).cluster_size() == 1
        assert FleetSpec(granularity="edge", **base).cluster_size() == 10
        assert FleetSpec(granularity="region", **base).cluster_size() == 50


class TestFleetAssignment:
    def test_deterministic_for_a_seed(self):
        assert fleet_assignment(SMALL) == fleet_assignment(SMALL)

    def test_different_seed_changes_assignment(self):
        from dataclasses import replace

        assert fleet_assignment(SMALL) != fleet_assignment(replace(SMALL, seed=4))

    def test_balanced_at_every_granularity(self):
        from dataclasses import replace

        for granularity in ("unit", "edge", "region"):
            spec = replace(SMALL, granularity=granularity)
            masks = fleet_assignment(spec)
            assert [len(m) for m in masks] == [
                spec.units_on_edge(e) for e in range(spec.edges)
            ]
            if granularity == "unit":
                treated_units = sum(sum(m) for m in masks)
                assert treated_units == round(spec.allocation * spec.units)
            elif granularity == "edge":
                uniform = [set(m) for m in masks]
                assert all(len(u) == 1 for u in uniform)
                treated_edges = sum(m[0] for m in masks)
                assert treated_edges == round(spec.allocation * spec.edges)
            else:
                treated_regions = {
                    spec.region_of(e) for e, m in enumerate(masks) if m[0]
                }
                assert len(treated_regions) == round(spec.allocation * spec.regions)
                # Every edge of a treated region is fully treated.
                for e, mask in enumerate(masks):
                    expected = spec.region_of(e) in treated_regions
                    assert set(mask) == {expected}

    def test_degenerate_allocations_are_granularity_independent(self):
        from dataclasses import replace

        for allocation in (0.0, 1.0):
            masks = {
                granularity: fleet_assignment(
                    replace(SMALL, granularity=granularity, allocation=allocation)
                )
                for granularity in ("unit", "edge", "region")
            }
            assert masks["unit"] == masks["edge"] == masks["region"]


class TestCoupling:
    def _weights(self, spec):
        return np.array(
            [
                sum(2 if t else 1 for t in mask)
                for mask in fleet_assignment(spec)
            ],
            dtype=float,
        )

    def test_overprovisioned_fleet_is_uncongested(self):
        coupling = couple_fleet(UNCONGESTED, self._weights(UNCONGESTED))
        assert not coupling.congested
        np.testing.assert_allclose(
            coupling.effective_capacity_mbps, UNCONGESTED.edge_capacity_mbps
        )
        assert (coupling.backbone_loss_rate == 0).all()
        # Uncongested region links add no standing-queue delay.
        np.testing.assert_allclose(coupling.extra_rtt_ms, UNCONGESTED.backbone_rtt_ms)
        assert (coupling.region_utilization < 1).all()

    def test_oversubscribed_regions_squeeze_and_inject_loss(self):
        coupling = couple_fleet(SMALL, self._weights(SMALL))
        assert coupling.congested
        assert (coupling.effective_capacity_mbps < SMALL.edge_capacity_mbps).all()
        assert (coupling.backbone_loss_rate > 0).all()
        assert (coupling.backbone_loss_rate <= 0.02).all()
        # Saturated region links add the standing-queue delay.
        np.testing.assert_allclose(
            coupling.extra_rtt_ms,
            SMALL.backbone_rtt_ms + SMALL.backbone_queue_delay_ms,
        )
        assert (coupling.region_utilization > 1).all()

    def test_region_capacity_is_conserved(self):
        weights = self._weights(SMALL)
        coupling = couple_fleet(SMALL, weights)
        for r in range(SMALL.regions):
            members = [e for e in range(SMALL.edges) if SMALL.region_of(e) == r]
            granted = float(coupling.effective_capacity_mbps[members].sum())
            capacity = SMALL.region_oversubscription * (
                SMALL.edge_capacity_mbps * len(members)
            )
            assert granted <= capacity + 1e-9

    def test_heavier_edges_win_a_bigger_share(self):
        from dataclasses import replace

        spec = replace(SMALL, granularity="edge")
        weights = self._weights(spec)
        coupling = couple_fleet(spec, weights)
        for r in range(spec.regions):
            members = [e for e in range(spec.edges) if spec.region_of(e) == r]
            heavy = [e for e in members if weights[e] == weights[members].max()]
            light = [e for e in members if weights[e] == weights[members].min()]
            if weights[members].max() > weights[members].min():
                assert (
                    coupling.effective_capacity_mbps[heavy].min()
                    > coupling.effective_capacity_mbps[light].max()
                )

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            couple_fleet(SMALL, np.ones(3))
        with pytest.raises(ValueError):
            couple_fleet(SMALL, np.zeros(SMALL.edges))


class TestAggregation:
    def test_cell_stats_add_and_merge(self):
        a = CellStats()
        b = CellStats()
        for v in (1.0, 2.0, 3.0):
            a.add(v)
        for v in (4.0, 5.0):
            b.add(v)
        merged = a.merge(b)
        assert merged.stats.count == 5
        assert merged.stats.mean == pytest.approx(3.0)
        assert merged.sketch.quantile(0.0) == 1.0
        assert merged.sketch.quantile(1.0) == 5.0
        # Non-mutating: inputs unchanged.
        assert a.stats.count == 3
        assert b.stats.count == 2

    def test_shard_stats_merge_adds_counters_and_unions_cells(self):
        a = ShardStats(units=10, packets=100, drops=5)
        a.cells[cell_key("treated", "throughput_mbps")] = CellStats()
        a.cells[cell_key("treated", "throughput_mbps")].add(2.0)
        b = ShardStats(units=20, packets=200, drops=7)
        b.cells[cell_key("control", "throughput_mbps")] = CellStats()
        b.cells[cell_key("control", "throughput_mbps")].add(1.0)
        merged = a.merge(b)
        assert merged.units == 30
        assert merged.shards == 2
        assert merged.packets == 300
        assert merged.drops == 12
        assert set(merged.cells) == {
            cell_key("treated", "throughput_mbps"),
            cell_key("control", "throughput_mbps"),
        }
        assert merged.cell("treated", "throughput_mbps").stats.count == 1

    def test_merge_is_safe_when_both_sides_are_the_same_object(self):
        # Content-key dedupe can hand the fold the *same* ShardStats for
        # two edges; merging it with itself must not corrupt state.
        a = ShardStats(units=5, packets=10)
        key = cell_key("treated", "throughput_mbps")
        a.cells[key] = CellStats()
        a.cells[key].add(3.0)
        merged = a.merge(a)
        assert merged.units == 10
        assert merged.cells[key].stats.count == 2
        assert a.units == 5
        assert a.cells[key].stats.count == 1


class TestRunFleet:
    def test_merged_statistics_bit_identical_across_jobs(self):
        serial = run_fleet(SMALL)
        parallel = run_fleet(SMALL, ParallelExecutor(jobs=4))
        assert serial.stats == parallel.stats
        assert serial.unique_sims == parallel.unique_sims

    def test_aggregation_memory_is_bounded_by_cells_not_units(self):
        from dataclasses import replace

        # At a compression the small fleet already saturates, 10x the
        # units must not grow the merged result: its size is bounded by
        # cells x sketch size (the compression factor), not the fleet.
        small = run_fleet(replace(SMALL, units=60, sketch_compression=16))
        big = run_fleet(replace(SMALL, units=600, sketch_compression=16))
        assert big.stats.units == 10 * small.stats.units
        small_size = len(pickle.dumps(small.stats))
        big_size = len(pickle.dumps(big.stats))
        assert set(big.stats.cells) == set(small.stats.cells)
        assert big_size <= 1.1 * small_size
        for cell in big.stats.cells.values():
            assert len(cell.sketch) <= 16

    def test_identical_shards_are_simulated_once(self):
        from dataclasses import replace

        # Homogeneous uncongested fleet at edge granularity: every shard
        # is all-treated or all-control on identical links with no seed,
        # so 6 edges collapse to 2 distinct simulations.
        spec = replace(UNCONGESTED, granularity="edge")
        specs, _ = shard_specs(spec)
        assert all(s.seed is None for s in specs)
        assert len({content_key(s) for s in specs}) == 2
        result = run_fleet(spec)
        assert result.unique_sims == 2
        assert result.stats.shards == spec.edges
        assert result.stats.units == spec.units

    def test_congested_shards_derive_distinct_seeds(self):
        specs, coupling = shard_specs(SMALL)
        assert coupling.congested
        seeds = [s.seed for s in specs]
        assert all(seed is not None for seed in seeds)
        assert len(set(seeds)) == len(seeds)
        # Seeds are a pure function of (master seed, edge index).
        again, _ = shard_specs(SMALL)
        assert [s.seed for s in again] == seeds

    def test_fleet_result_accessors(self):
        result = run_fleet(SMALL)
        treated = result.mean("treated", "throughput_mbps")
        control = result.mean("control", "throughput_mbps")
        assert result.ab_estimate("throughput_mbps") == pytest.approx(
            treated - control
        )
        assert result.arm_count("treated") + result.arm_count("control") == SMALL.units
        assert result.arm_count("treated", "missing-metric") == 0
        p10 = result.quantile("treated", "throughput_mbps", 0.1)
        p90 = result.quantile("treated", "throughput_mbps", 0.9)
        assert p10 <= treated <= p90

    def test_churn_feeds_the_fct_cell(self):
        from dataclasses import replace

        from repro.netsim.fleet import FCT_CELL

        spec = replace(SMALL, edges=3, units=30, churn_per_s=6.0)
        result = run_fleet(spec)
        assert result.stats.dynamic_flows_started > 0
        assert FCT_CELL in result.stats.cells
        fct = result.stats.cells[FCT_CELL]
        assert fct.stats.count == result.stats.dynamic_flows_completed
        assert fct.sketch.quantile(0.5) > 0


class TestSketchAccuracyOnReferenceFleet:
    def test_fleet_percentiles_match_exact_values(self):
        from dataclasses import replace

        # Re-run every shard raw and pool the exact per-unit throughputs;
        # the fleet's merged sketch must land within 2 % of the value
        # range of the exact percentiles (the tolerance documented in
        # docs/architecture.md).  100 units per edge keeps per-arm samples
        # large enough that interpolation conventions cannot dominate.
        reference = replace(SMALL, units=600)
        result = run_fleet(reference)
        specs, _ = shard_specs(reference)
        exact = {"treated": [], "control": []}
        for spec in specs:
            raw = shard_simulation(
                tuple(spec.params["treated_mask"]),
                treatment_connections=spec.params["treatment_connections"],
                control_connections=spec.params["control_connections"],
                capacity_mbps=spec.params["capacity_mbps"],
                rtt_ms=spec.params["rtt_ms"],
                loss_rate=spec.params["loss_rate"],
                buffer_bdp=spec.params["buffer_bdp"],
                duration_s=spec.params["duration_s"],
                warmup_s=spec.params["warmup_s"],
                seed=spec.seed,
            )
            for flow in raw.flows:
                exact["treated" if flow.treated else "control"].append(
                    flow.throughput_mbps
                )
        for arm, values in exact.items():
            values = np.array(values)
            assert len(values) == result.arm_count(arm)
            spread = float(values.max() - values.min()) or 1.0
            for q in (0.1, 0.25, 0.5, 0.75, 0.9):
                sketch_q = result.quantile(arm, "throughput_mbps", q)
                exact_q = float(np.quantile(values, q))
                assert abs(sketch_q - exact_q) <= 0.02 * spread, (arm, q)
