"""Pin the vectorized fluid kernels and the array lab sweep against their
scalar references."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import (
    CompetitionModel,
    UnitColumns,
    allocate_throughput,
    allocate_throughput_reference,
    link_loss_rate,
    link_loss_rate_reference,
    weighted_water_fill,
    weighted_water_fill_reference,
)
from repro.netsim.fluid.lab import run_lab_sweep
from repro.netsim.fluid.link import BottleneckLink, loss_probability

LINK = BottleneckLink()


def _random_apps(seed: int, n: int) -> list[Application]:
    """A deterministic mixed-population application list."""
    rng = random.Random(f"fluid-vec:{seed}")
    apps = []
    for i in range(n):
        apps.append(
            Application(
                app_id=i,
                cc=rng.choice(["reno", "cubic", "bbr"]),
                connections=rng.randint(1, 4),
                paced=rng.random() < 0.3,
            )
        )
    return apps


MIXES = {
    "loss_only": [Application(0, connections=2), Application(1), Application(2, cc="cubic")],
    "bbr_only": [Application(0, cc="bbr"), Application(1, cc="bbr", connections=3)],
    "mixed": [
        Application(0, cc="bbr", connections=2),
        Application(1, connections=2, paced=True),
        Application(2, cc="cubic"),
    ],
    "paced_mix": [Application(0, paced=True), Application(1), Application(2, paced=True)],
}


def _allocate(link, apps, model=None):
    units = UnitColumns.from_applications(apps)
    return units, allocate_throughput(link, units, model)


def _assert_pinned(link, apps, model=None):
    """The array allocation and loss rate equal the scalar references, up
    to summation order."""
    units, shares = _allocate(link, apps, model)
    slow = allocate_throughput_reference(link, apps, model)
    assert shares.tolist() == pytest.approx([slow[a.app_id] for a in apps], rel=1e-12)
    assert link_loss_rate(link, units, shares, model) == pytest.approx(
        link_loss_rate_reference(link, apps, model), rel=1e-12
    )


class TestAllocationPinnedToScalar:
    @pytest.mark.parametrize("name", sorted(MIXES))
    def test_named_mixes(self, name):
        _assert_pinned(LINK, MIXES[name])
        _assert_pinned(BottleneckLink(capacity_gbps=0.05), MIXES[name])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_populations(self, seed):
        model = CompetitionModel(paced_weight=0.6, bbr_aggregate_share=0.35)
        _assert_pinned(LINK, _random_apps(seed, n=50), model)
        _assert_pinned(BottleneckLink(capacity_gbps=0.2), _random_apps(seed + 100, n=40))

    def test_validation_matches_reference(self):
        for apps in ([], [Application(0), Application(0)]):
            with pytest.raises(ValueError):
                _allocate(LINK, apps)
            with pytest.raises(ValueError):
                allocate_throughput_reference(LINK, apps)

    def test_shares_must_match_the_units(self):
        units, shares = _allocate(LINK, MIXES["mixed"])
        with pytest.raises(ValueError):
            link_loss_rate(LINK, units, shares[:2])

    def test_where_picks_units_by_mask(self):
        treated = UnitColumns.from_applications([Application(i, cc="bbr") for i in range(3)])
        control = UnitColumns.from_applications(
            [Application(i + 10, connections=2, paced=True) for i in range(3)]
        )
        arm = treated.where(np.array([True, False, True]), control)
        assert arm.app_id.tolist() == [0, 11, 2]
        assert arm.is_bbr.tolist() == [True, False, True]
        assert arm.connections.tolist() == [1.0, 2.0, 1.0]
        assert arm.paced.tolist() == [False, True, False]


#: Competition weights that are not sums of powers of two, so products and
#: sums of them round; the lab goldens only pin the default, dyadic ones.
non_dyadic_models = st.builds(
    CompetitionModel,
    paced_weight=st.sampled_from([0.3, 0.55, 0.7, 1.0]),
    bbr_aggregate_share=st.sampled_from([0.35, 0.4, 0.63]),
    pacing_loss_floor=st.sampled_from([0.1, 0.25, 0.7]),
    cubic_weight=st.sampled_from([0.7, 1.0, 1.3, 2.9]),
)
factories = st.builds(
    lambda cc, connections, paced: partial(
        Application, cc=cc, connections=connections, paced=paced
    ),
    st.sampled_from(["reno", "cubic", "bbr"]),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
links = st.sampled_from([LINK, BottleneckLink(capacity_gbps=0.05), BottleneckLink(0.3, 20.0)])


def scalar_arm(n_units, k, treatment, control):
    """The applications of arm ``k``, built the way the scalar lab did."""
    return [
        replace(treatment(i), treated=True) if i < k else control(i) for i in range(n_units)
    ]


class TestLabSweepAgainstScalarOracle:
    """Every arm of the array sweep against the scalar references."""

    @given(
        n_units=st.integers(min_value=1, max_value=12),
        treatment=factories,
        control=factories,
        model=non_dyadic_models,
        link=links,
    )
    @settings(max_examples=80, deadline=None)
    def test_noiseless_arms_equal_the_reference(self, n_units, treatment, control, model, link):
        sweep = run_lab_sweep(n_units, treatment, control, link=link, model=model)
        for k, result in sweep.results.items():
            apps = scalar_arm(n_units, k, treatment, control)
            throughput = allocate_throughput_reference(link, apps, model)
            loss = link_loss_rate_reference(link, apps, model)
            assert result.treated.tolist() == [a.treated for a in apps]
            assert result.throughput_mbps.tolist() == pytest.approx(
                [throughput[a.app_id] for a in apps], rel=1e-12
            )
            assert result.retransmit_fraction.tolist() == pytest.approx(
                [loss] * n_units, rel=1e-12
            )

    @given(
        n_units=st.integers(min_value=1, max_value=12),
        treatment=factories,
        control=factories,
        model=non_dyadic_models,
        noise=st.sampled_from([0.01, 0.2, 0.9, 3.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_noisy_arms_equal_a_per_application_draw_loop(
        self, n_units, treatment, control, model, noise, seed
    ):
        clean = run_lab_sweep(n_units, treatment, control, model=model)
        noisy = run_lab_sweep(n_units, treatment, control, model=model, noise=noise, seed=seed)
        for k, result in noisy.results.items():
            rng = np.random.default_rng(seed + k)
            loss = float(clean.results[k].retransmit_fraction[0])
            throughput, retransmit = [], []
            for share in clean.results[k].throughput_mbps.tolist():
                t_factor = 1.0 + rng.normal(0.0, noise)
                r_factor = 1.0 + rng.normal(0.0, noise)
                throughput.append(max(share * t_factor, 0.0))
                retransmit.append(float(np.clip(loss * r_factor, 0.0, 1.0)))
            assert result.throughput_mbps.tolist() == throughput
            assert result.retransmit_fraction.tolist() == retransmit

    @given(
        n_units=st.integers(min_value=1, max_value=12),
        treatment=factories,
        control=factories,
        model=non_dyadic_models,
        link=links,
        noise=st.sampled_from([0.0, 0.05, 0.9, 3.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_group_mean_equals_np_mean(self, n_units, treatment, control, model, link, noise, seed):
        sweep = run_lab_sweep(
            n_units, treatment, control, link=link, model=model, noise=noise, seed=seed
        )
        for result in sweep.results.values():
            for metric in ("throughput_mbps", "retransmit_fraction"):
                values = getattr(result, metric)
                for arm in (True, False):
                    mask = result.treated if arm else ~result.treated
                    if mask.any():
                        assert result.group_mean(metric, arm) == float(np.mean(values[mask]))


class TestLossProbabilityKernel:
    def test_scalar_matches_inline_formula(self):
        link = BottleneckLink()
        rate = 500.0
        expected = 1.5 * (
            link.mtu_bytes * 8 / ((link.base_rtt_ms / 1000.0) * rate * 1e6)
        ) ** 2
        assert link.loss_probability(rate) == pytest.approx(expected, rel=1e-12)

    def test_array_broadcast(self):
        rates = np.array([0.5, 5.0, 50.0])
        rtts = np.array([1.0, 10.0, 100.0])
        result = loss_probability(rates, rtt_ms=rtts, mtu_bytes=1500)
        assert result.shape == (3,)
        for i in range(3):
            assert result[i] == pytest.approx(
                loss_probability(float(rates[i]), rtt_ms=float(rtts[i]), mtu_bytes=1500)
            )

    def test_link_method_equals_the_kernel(self):
        rng = np.random.default_rng(104)
        for _ in range(5000):
            link = BottleneckLink(
                capacity_gbps=float(rng.uniform(0.01, 100.0)),
                base_rtt_ms=float(rng.lognormal(0.0, 2.0)),
                mtu_bytes=int(rng.integers(64, 9001)),
            )
            rate = float(rng.lognormal(0.0, 8.0)) * float(rng.choice([0.0, -1.0, 1.0, 1.0]))
            kernel = loss_probability(rate, rtt_ms=link.base_rtt_ms, mtu_bytes=link.mtu_bytes)
            assert link.loss_probability(rate) == kernel
            assert link.loss_probability(np.float64(rate)) == kernel

    def test_link_method_clips(self):
        assert BottleneckLink().loss_probability(0.0) == 1.0
        assert BottleneckLink().loss_probability(-3.0) == 1.0
        assert BottleneckLink().loss_probability(float("nan")) == 1.0
        assert BottleneckLink().loss_probability(1e-9) == 1.0

    def test_clipping(self):
        assert loss_probability(0.0, rtt_ms=1.0, mtu_bytes=1500) == 1.0
        assert loss_probability(1e-9, rtt_ms=1000.0, mtu_bytes=9000) == 1.0
        assert loss_probability(1e9, rtt_ms=1.0, mtu_bytes=1500) < 1e-10


class TestWeightedWaterFill:
    def _random_case(self, seed: int, n: int):
        rng = random.Random(f"waterfill:{seed}")
        demands = np.array([rng.uniform(0.0, 100.0) for _ in range(n)])
        weights = np.array([rng.uniform(0.5, 4.0) for _ in range(n)])
        capacity = rng.uniform(0.1, 1.2) * float(demands.sum())
        return capacity, demands, weights

    @pytest.mark.parametrize("seed", range(10))
    def test_pinned_to_scalar_reference(self, seed):
        capacity, demands, weights = self._random_case(seed, n=64)
        fast = weighted_water_fill(capacity, demands, weights)
        slow = weighted_water_fill_reference(capacity, demands, weights)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)

    def test_conservation_and_demand_cap(self):
        capacity, demands, weights = self._random_case(99, n=128)
        alloc = weighted_water_fill(capacity, demands, weights)
        assert float(alloc.sum()) == pytest.approx(min(capacity, float(demands.sum())))
        assert (alloc <= demands + 1e-9).all()
        assert (alloc >= 0).all()

    def test_uncongested_meets_all_demands(self):
        demands = np.array([10.0, 20.0, 30.0])
        alloc = weighted_water_fill(100.0, demands, np.ones(3))
        np.testing.assert_allclose(alloc, demands)

    def test_weights_shape_shares(self):
        # Unsaturated entities split in proportion to weight.
        demands = np.array([1000.0, 1000.0])
        alloc = weighted_water_fill(90.0, demands, np.array([2.0, 1.0]))
        np.testing.assert_allclose(alloc, [60.0, 30.0])

    def test_saturated_entity_frees_capacity(self):
        demands = np.array([5.0, 1000.0, 1000.0])
        alloc = weighted_water_fill(105.0, demands, np.ones(3))
        np.testing.assert_allclose(alloc, [5.0, 50.0, 50.0])

    def test_zero_capacity(self):
        alloc = weighted_water_fill(0.0, np.array([1.0, 2.0]), np.ones(2))
        np.testing.assert_allclose(alloc, [0.0, 0.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            weighted_water_fill(1.0, np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            weighted_water_fill(1.0, np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            weighted_water_fill(1.0, np.array([1.0]), np.array([0.0]))
