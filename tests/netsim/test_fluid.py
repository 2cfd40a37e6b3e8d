"""Tests for the fluid bottleneck-sharing simulator."""

import math

import numpy as np
import pytest

from repro.core.estimands import AllocationSweep, sutva_holds
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import (
    CompetitionModel,
    UnitColumns,
    allocate_throughput,
    link_loss_rate,
)
from repro.netsim.fluid.lab import run_isolated_sweep, run_lab_experiment, run_lab_sweep
from repro.netsim.fluid.link import BottleneckLink
from repro.runner.spec import get_task


def allocate(link, apps, model=None):
    """Each application's throughput, in list order, through the unit columns."""
    return allocate_throughput(link, UnitColumns.from_applications(apps), model)


def loss_rate(link, apps, model=None):
    """The link's loss rate for an application list, through the unit columns."""
    units = UnitColumns.from_applications(apps)
    return link_loss_rate(link, units, allocate_throughput(link, units, model), model)


class TestBottleneckLink:
    def test_defaults_match_paper_testbed(self):
        link = BottleneckLink()
        assert link.capacity_gbps == 10.0
        assert link.base_rtt_ms == 1.0
        assert link.mtu_bytes == 9000

    def test_capacity_mbps(self):
        assert BottleneckLink(capacity_gbps=10).capacity_mbps == 10000.0

    def test_bdp(self):
        link = BottleneckLink(capacity_gbps=10, base_rtt_ms=1)
        assert link.bdp_bytes == pytest.approx(10e9 / 8 * 1e-3)

    def test_buffer_and_queueing_delay(self):
        link = BottleneckLink(buffer_bdp=1.0)
        assert link.buffer_bytes == pytest.approx(link.bdp_bytes)
        assert link.max_queueing_delay_ms == pytest.approx(link.base_rtt_ms)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            BottleneckLink(capacity_gbps=0)
        with pytest.raises(ValueError):
            BottleneckLink(base_rtt_ms=-1)

    def test_buffer_scales_with_bdp_multiple(self):
        link = BottleneckLink(capacity_gbps=1, base_rtt_ms=20, buffer_bdp=0.5)
        assert link.buffer_bytes == pytest.approx(0.5 * link.bdp_bytes)
        assert link.max_queueing_delay_ms == pytest.approx(10.0)

    def test_invalid_buffer_and_mtu_raise(self):
        with pytest.raises(ValueError):
            BottleneckLink(buffer_bdp=-0.1)
        with pytest.raises(ValueError):
            BottleneckLink(mtu_bytes=0)


class TestApplication:
    def test_unknown_cc_raises(self):
        with pytest.raises(ValueError):
            Application(0, cc="vegas")

    def test_zero_connections_raise(self):
        with pytest.raises(ValueError):
            Application(0, connections=0)

    def test_loss_based_classification(self):
        assert Application(0, cc="reno").is_loss_based
        assert Application(0, cc="cubic").is_loss_based
        assert not Application(0, cc="bbr").is_loss_based


class TestCompetitionModel:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            CompetitionModel(paced_weight=0.0)
        with pytest.raises(ValueError):
            CompetitionModel(bbr_aggregate_share=1.0)
        with pytest.raises(ValueError):
            CompetitionModel(pacing_loss_floor=0.0)

    def test_connection_weights(self):
        model = CompetitionModel(paced_weight=0.5)
        assert model.connection_weight(Application(0, cc="reno")) == 1.0
        assert model.connection_weight(Application(0, cc="reno", paced=True)) == 0.5
        # Pacing does not change BBR's weight (BBR always paces anyway).
        assert model.connection_weight(Application(0, cc="bbr", paced=True)) == 1.0


class TestThroughputAllocation:
    def test_equal_flows_share_equally(self):
        apps = [Application(i, cc="reno") for i in range(10)]
        shares = allocate(BottleneckLink(), apps)
        for value in shares:
            assert value == pytest.approx(1000.0)

    def test_total_never_exceeds_capacity(self):
        apps = [Application(i, cc="reno", connections=1 + i % 3) for i in range(7)]
        shares = allocate(BottleneckLink(), apps)
        assert shares.sum() == pytest.approx(10000.0)

    def test_two_connections_double_throughput(self):
        apps = [Application(0, connections=2)] + [
            Application(i, connections=1) for i in range(1, 10)
        ]
        shares = allocate(BottleneckLink(), apps)
        assert shares[0] == pytest.approx(2 * shares[1])

    def test_paced_gets_half_of_unpaced(self):
        apps = [Application(0, paced=True)] + [Application(i) for i in range(1, 10)]
        shares = allocate(BottleneckLink(), apps)
        assert shares[0] == pytest.approx(0.5 * shares[1])

    def test_all_paced_equals_all_unpaced(self):
        paced = [Application(i, paced=True) for i in range(10)]
        unpaced = [Application(i, paced=False) for i in range(10)]
        link = BottleneckLink()
        assert allocate(link, paced)[0] == pytest.approx(
            allocate(link, unpaced)[0]
        )

    def test_bbr_aggregate_share_independent_of_flow_count(self):
        link, model = BottleneckLink(), CompetitionModel(bbr_aggregate_share=0.4)
        one_bbr = [Application(0, cc="bbr")] + [Application(i, cc="cubic") for i in range(1, 10)]
        many_bbr = [Application(i, cc="bbr") for i in range(9)] + [Application(9, cc="cubic")]
        shares_one = allocate(link, one_bbr, model)
        shares_many = allocate(link, many_bbr, model)
        bbr_total_one = shares_one[0]
        bbr_total_many = sum(shares_many[i] for i in range(9))
        assert bbr_total_one == pytest.approx(4000.0)
        assert bbr_total_many == pytest.approx(4000.0)

    def test_all_bbr_shares_equally(self):
        apps = [Application(i, cc="bbr") for i in range(10)]
        shares = allocate(BottleneckLink(), apps)
        for value in shares:
            assert value == pytest.approx(1000.0)

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError):
            allocate(BottleneckLink(), [Application(0), Application(0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            allocate(BottleneckLink(), [])


class TestLossRate:
    def test_more_connections_more_loss(self):
        link = BottleneckLink()
        one = [Application(i, connections=1) for i in range(10)]
        two = [Application(i, connections=2) for i in range(10)]
        assert loss_rate(link, two) > loss_rate(link, one)

    def test_all_paced_reduces_loss(self):
        link = BottleneckLink()
        unpaced = [Application(i) for i in range(10)]
        paced = [Application(i, paced=True) for i in range(10)]
        model = CompetitionModel(pacing_loss_floor=0.25)
        assert loss_rate(link, paced, model) == pytest.approx(
            0.25 * loss_rate(link, unpaced, model)
        )

    def test_loss_identical_for_all_apps_in_one_run(self):
        # The loss rate is a link property, not a per-application property.
        result = run_lab_experiment(
            [Application(0, connections=2, treated=True)]
            + [Application(i) for i in range(1, 10)]
        )
        values = set(round(v, 12) for v in result.retransmit_fraction.tolist())
        assert len(values) == 1

    def test_bbr_only_loss_is_small(self):
        apps = [Application(i, cc="bbr") for i in range(10)]
        assert loss_rate(BottleneckLink(), apps) <= 0.01

    def test_loss_bounded_by_one(self):
        tiny = BottleneckLink(capacity_gbps=0.001)
        apps = [Application(i, connections=4) for i in range(10)]
        assert loss_rate(tiny, apps) <= 1.0


class TestLabSweep:
    def test_sweep_covers_all_allocations(self):
        sweep = run_lab_sweep(
            10,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        assert sorted(sweep.results) == list(range(11))
        assert sweep.allocations[0] == 0.0 and sweep.allocations[-1] == 1.0

    def test_connections_tte_is_zero_for_throughput(self):
        sweep = run_lab_sweep(
            10,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        assert sweep.tte("throughput_mbps") == pytest.approx(0.0, abs=1e-6)

    def test_connections_ab_estimate_is_double_throughput(self):
        sweep = run_lab_sweep(
            10,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        curve = sweep.curve("throughput_mbps")
        for p in (0.1, 0.5, 0.9):
            assert curve.mu_treatment(p) == pytest.approx(2 * curve.mu_control(p))

    def test_connections_retransmit_tte_positive(self):
        sweep = run_lab_sweep(
            10,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        assert sweep.tte("retransmit_fraction") > 0.0

    def test_connections_spillover_negative_for_control_throughput(self):
        sweep = run_lab_sweep(
            10,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        assert sweep.spillover("throughput_mbps", 0.9) < 0.0

    def test_sweep_violates_sutva(self):
        sweep = run_lab_sweep(
            10,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        assert not sutva_holds(sweep.curve("throughput_mbps"), tolerance=0.01, relative=True)

    def test_noise_is_reproducible(self):
        kwargs = dict(noise=0.02, seed=42)
        treatment = lambda i: Application(i, connections=2)  # noqa: E731
        control = lambda i: Application(i)  # noqa: E731
        a = run_lab_sweep(5, treatment, control, **kwargs)
        b = run_lab_sweep(5, treatment, control, **kwargs)
        assert a.curve("throughput_mbps").mu_treatment(0.4) == pytest.approx(
            b.curve("throughput_mbps").mu_treatment(0.4)
        )

    def test_invalid_n_units_raises(self):
        with pytest.raises(ValueError):
            run_lab_sweep(0, lambda i: Application(i), lambda i: Application(i))

    def test_returns_an_allocation_sweep(self):
        for sweep_fn in (run_lab_sweep, run_isolated_sweep):
            sweep = sweep_fn(2, lambda i: Application(i, connections=2), Application)
            assert isinstance(sweep, AllocationSweep)
            assert sorted(sweep.results) == [0, 1, 2]

    def test_takes_no_runner_arguments(self):
        # A fluid arm is a closed-form allocation: it runs in-process, with
        # no worker fan-out and no result cache.
        with pytest.raises(TypeError):
            run_lab_sweep(2, Application, Application, jobs=2)

    @pytest.mark.parametrize("substrate, is_task", [("packet", True), ("fluid", False)])
    def test_only_packet_arms_are_runner_tasks(self, substrate, is_task):
        import repro.netsim.fluid.lab  # noqa: F401
        import repro.netsim.packet.simulation  # noqa: F401

        name = f"netsim.{substrate}_arm"
        if is_task:
            assert callable(get_task(name))
        else:
            with pytest.raises(KeyError):
                get_task(name)


class TestIsolatedSweep:
    def test_isolated_sweep_satisfies_sutva(self):
        sweep = run_isolated_sweep(
            5,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        assert sutva_holds(sweep.curve("throughput_mbps"), tolerance=0.01, relative=True)

    def test_isolated_tte_equals_ab_estimate(self):
        sweep = run_isolated_sweep(
            5,
            lambda i: Application(i, connections=2),
            lambda i: Application(i, connections=1),
        )
        curve = sweep.curve("throughput_mbps")
        assert curve.tte() == pytest.approx(curve.ate(0.4), abs=1e-6)


class TestLabExperimentResult:
    def test_group_mean_requires_members(self):
        result = run_lab_experiment([Application(0)])
        with pytest.raises(ValueError):
            result.group_mean("throughput_mbps", treated=True)

    def test_unknown_metric_raises(self):
        result = run_lab_experiment([Application(0)])
        with pytest.raises(KeyError):
            result.group_mean("nope", treated=False)

    def test_group_mean_is_the_mean_of_the_arm(self):
        result = run_lab_experiment(
            [Application(i, connections=1 + i % 2, treated=i < 3) for i in range(7)],
            noise=0.1,
            seed=4,
        )
        assert result.treated.tolist() == [True] * 3 + [False] * 4
        for metric in ("throughput_mbps", "retransmit_fraction"):
            values = getattr(result, metric)
            assert result.group_mean(metric, True) == np.mean(values[:3])
            assert result.group_mean(metric, False) == np.mean(values[3:])


#: Link and model parameters that are NaN or infinite.  Each used to
#: construct, and every unit of a sweep on such a link then read NaN.
NON_FINITE_FLUID = {
    "capacity-nan": lambda: BottleneckLink(capacity_gbps=math.nan),
    "capacity-inf": lambda: BottleneckLink(capacity_gbps=math.inf),
    "base-rtt-nan": lambda: BottleneckLink(base_rtt_ms=math.nan),
    "base-rtt-inf": lambda: BottleneckLink(base_rtt_ms=math.inf),
    "buffer-bdp-nan": lambda: BottleneckLink(buffer_bdp=math.nan),
    "buffer-bdp-inf": lambda: BottleneckLink(buffer_bdp=math.inf),
    "mtu-nan": lambda: BottleneckLink(mtu_bytes=math.nan),
    "mtu-inf": lambda: BottleneckLink(mtu_bytes=math.inf),
    "cubic-weight-nan": lambda: CompetitionModel(cubic_weight=math.nan),
    "cubic-weight-inf": lambda: CompetitionModel(cubic_weight=math.inf),
}


@pytest.mark.parametrize("build", NON_FINITE_FLUID.values(), ids=NON_FINITE_FLUID)
def test_non_finite_link_or_model_is_rejected(build):
    with pytest.raises(ValueError):
        build()


#: Noise levels the lab used to treat as no noise at all (it only tested
#: ``noise > 0``), and infinity.
BAD_NOISE = [-0.5, math.nan, math.inf]


@pytest.mark.parametrize("noise", BAD_NOISE)
def test_lab_sweep_rejects_bad_noise(noise):
    with pytest.raises(ValueError):
        run_lab_sweep(2, lambda i: Application(i, connections=2), Application, noise=noise, seed=1)


@pytest.mark.parametrize("noise", BAD_NOISE)
def test_lab_experiment_rejects_bad_noise(noise):
    with pytest.raises(ValueError):
        run_lab_experiment([Application(0), Application(1)], noise=noise, seed=1)


class TestSweepUnits:
    def test_each_factory_is_called_once_per_id(self):
        calls = []

        def factory(cc):
            def build(i):
                calls.append((cc, i))
                return Application(i, cc=cc)

            return build

        run_lab_sweep(4, factory("bbr"), factory("cubic"))
        assert sorted(calls) == sorted((cc, i) for cc in ("bbr", "cubic") for i in range(4))

    def test_arm_with_duplicate_ids_raises(self):
        # Arm 2 holds treated unit 0 twice (the treatment factory ignores i).
        with pytest.raises(ValueError, match="unique"):
            run_lab_sweep(3, lambda i: Application(0, connections=2), Application)

    def test_arm_k_treats_the_first_k_units(self):
        sweep = run_lab_sweep(3, lambda i: Application(i, connections=2), Application)
        for k, result in sweep.results.items():
            assert result.treated.tolist() == [i < k for i in range(3)]
