"""Property-based tests for the fluid simulator's sharing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fluid.application import Application
from repro.netsim.fluid.competition import (
    CompetitionModel,
    UnitColumns,
    allocate_throughput,
    link_loss_rate,
)
from repro.netsim.fluid.link import BottleneckLink

cc_strategy = st.sampled_from(["reno", "cubic", "bbr"])


def allocate(link, apps, model=None):
    """Each application's throughput, in list order, through the unit columns."""
    return allocate_throughput(link, UnitColumns.from_applications(list(apps)), model)


def application_strategy(app_id):
    return st.builds(
        Application,
        app_id=st.just(app_id),
        cc=cc_strategy,
        connections=st.integers(min_value=1, max_value=4),
        paced=st.booleans(),
    )


def applications_strategy(min_size=1, max_size=12):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(*[application_strategy(i) for i in range(n)])
    )


class TestFluidInvariants:
    @given(apps=applications_strategy())
    @settings(max_examples=100, deadline=None)
    def test_work_conservation(self, apps):
        """The link is always fully utilised by long-lived flows."""
        link = BottleneckLink()
        shares = allocate(link, list(apps))
        assert shares.sum() == pytest.approx(link.capacity_mbps, rel=1e-9)

    @given(apps=applications_strategy())
    @settings(max_examples=100, deadline=None)
    def test_non_negative_shares(self, apps):
        shares = allocate(BottleneckLink(), list(apps))
        assert (shares >= 0).all()

    @given(apps=applications_strategy())
    @settings(max_examples=100, deadline=None)
    def test_loss_rate_is_a_probability(self, apps):
        units = UnitColumns.from_applications(list(apps))
        loss = link_loss_rate(BottleneckLink(), units, allocate_throughput(BottleneckLink(), units))
        assert 0.0 <= loss <= 1.0

    @given(
        apps=applications_strategy(),
        capacity=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shares_scale_with_capacity(self, apps, capacity):
        """Doubling link capacity doubles every application's share."""
        base = BottleneckLink(capacity_gbps=capacity)
        double = BottleneckLink(capacity_gbps=2 * capacity)
        shares_base = allocate(base, list(apps))
        shares_double = allocate(double, list(apps))
        assert shares_double.tolist() == pytest.approx((2 * shares_base).tolist(), rel=1e-9)

    @given(
        n=st.integers(min_value=2, max_value=10),
        connections=st.integers(min_value=1, max_value=4),
        cc=cc_strategy,
        paced=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_applications_get_identical_shares(self, n, connections, cc, paced):
        apps = [Application(i, cc=cc, connections=connections, paced=paced) for i in range(n)]
        shares = allocate(BottleneckLink(), apps)
        assert np.allclose(shares, shares[0])

    @given(
        n=st.integers(min_value=2, max_value=8),
        extra_connections=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_connections_never_hurt_an_application(self, n, extra_connections):
        """Within loss-based traffic, adding connections weakly increases share."""
        base_apps = [Application(i, cc="reno") for i in range(n)]
        upgraded = [Application(0, cc="reno", connections=1 + extra_connections)] + [
            Application(i, cc="reno") for i in range(1, n)
        ]
        link = BottleneckLink()
        base_share = allocate(link, base_apps)[0]
        upgraded_share = allocate(link, upgraded)[0]
        assert upgraded_share >= base_share - 1e-9

    @given(share=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_bbr_aggregate_share_parameter_is_respected(self, share):
        model = CompetitionModel(bbr_aggregate_share=share)
        apps = [Application(0, cc="bbr"), Application(1, cc="cubic")]
        shares = allocate(BottleneckLink(), apps, model)
        assert shares[0] == pytest.approx(share * 10000.0)
