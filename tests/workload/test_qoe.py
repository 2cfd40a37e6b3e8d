"""Tests for the per-session QoE outcome model."""

import numpy as np
import pytest

from repro.core.units import SESSION_METRICS
from repro.workload.congestion import LinkHourState
from repro.workload.qoe import CellConditions, LinkEffects, SessionDraws, SessionOutcomeModel
from repro.workload.video import BitrateCapPolicy


UNCONGESTED = LinkHourState(
    utilization=0.5, congested=False, throughput_factor=1.0, queueing_delay_ms=0.0, loss_rate=0.0
)
CONGESTED = LinkHourState(
    utilization=1.3,
    congested=True,
    throughput_factor=0.45,
    queueing_delay_ms=60.0,
    loss_rate=0.003,
)


def generate(
    n=4000, capped_fraction=0.5, state=UNCONGESTED, link=LinkEffects(), seed=0, **model_kwargs
):
    model = SessionOutcomeModel(**model_kwargs)
    rng = np.random.default_rng(seed)
    capped = rng.random(n) < capped_fraction
    ones = np.ones(n)
    outcomes = model.generate(
        capped=capped,
        state=state,
        link_effects=link,
        cap_policy=BitrateCapPolicy(),
        account_throughput_factor=ones,
        account_rtt_factor=ones,
        weekend=False,
        rng=rng,
    )
    return capped, outcomes


class TestOutcomeGeneration:
    def test_all_metrics_present(self):
        _, outcomes = generate(n=100)
        assert set(outcomes) == set(SESSION_METRICS)

    def test_empty_input_returns_empty(self):
        model = SessionOutcomeModel()
        result = model.generate(
            capped=np.array([], dtype=bool),
            state=UNCONGESTED,
            link_effects=LinkEffects(),
            cap_policy=BitrateCapPolicy(),
            account_throughput_factor=np.array([]),
            account_rtt_factor=np.array([]),
            weekend=False,
            rng=np.random.default_rng(0),
        )
        assert result == {}

    def test_mismatched_account_arrays_raise(self):
        model = SessionOutcomeModel()
        with pytest.raises(ValueError):
            model.generate(
                capped=np.array([True, False]),
                state=UNCONGESTED,
                link_effects=LinkEffects(),
                cap_policy=BitrateCapPolicy(),
                account_throughput_factor=np.ones(3),
                account_rtt_factor=np.ones(2),
                weekend=False,
                rng=np.random.default_rng(0),
            )

    def test_outputs_have_expected_ranges(self):
        _, outcomes = generate(n=2000, state=CONGESTED)
        assert np.all(outcomes["throughput_mbps"] > 0)
        assert np.all(outcomes["min_rtt_ms"] > 0)
        assert np.all(outcomes["retransmit_fraction"] >= 0)
        assert np.all(outcomes["retransmit_fraction"] <= 1)
        assert np.all(outcomes["stability"] <= 100)
        assert np.all(outcomes["perceptual_quality"] <= 100)
        assert set(np.unique(outcomes["cancelled_start"])) <= {0.0, 1.0}


class TestCapEffects:
    def test_capped_bitrate_is_lower(self):
        capped, outcomes = generate(n=4000)
        bitrate = outcomes["video_bitrate_kbps"]
        assert bitrate[capped].mean() < bitrate[~capped].mean()

    def test_capped_bitrate_respects_cap(self):
        capped, outcomes = generate(n=4000)
        assert outcomes["video_bitrate_kbps"][capped].max() <= BitrateCapPolicy().cap_kbps

    def test_capped_sends_fewer_bytes(self):
        capped, outcomes = generate(n=4000)
        bytes_sent = outcomes["bytes_sent_gb"]
        assert bytes_sent[capped].mean() < bytes_sent[~capped].mean()

    def test_capped_measured_throughput_slightly_lower(self):
        capped, outcomes = generate(n=20000)
        throughput = outcomes["throughput_mbps"]
        ratio = throughput[capped].mean() / throughput[~capped].mean()
        assert 0.90 < ratio < 1.0

    def test_capped_min_rtt_higher_under_congestion(self):
        # The sampling-relief mechanism: within the same congested link-hour,
        # capped sessions report slightly higher minimum RTTs.
        capped, outcomes = generate(n=20000, state=CONGESTED)
        rtt = outcomes["min_rtt_ms"]
        assert rtt[capped].mean() > rtt[~capped].mean()

    def test_capped_rebuffers_lower_under_congestion(self):
        capped, outcomes = generate(n=20000, state=CONGESTED)
        rebuffer = outcomes["rebuffer_rate"]
        assert rebuffer[capped].mean() < rebuffer[~capped].mean()

    def test_play_delay_does_not_depend_on_cap(self):
        capped, outcomes = generate(n=40000, state=CONGESTED)
        delay = outcomes["play_delay_s"]
        ratio = delay[capped].mean() / delay[~capped].mean()
        assert ratio == pytest.approx(1.0, abs=0.03)

    def test_retransmit_fraction_higher_for_capped_off_peak(self):
        # Off peak, the fixed per-session retransmitted bytes weigh more for
        # capped sessions because they send fewer bytes overall.
        capped, outcomes = generate(n=20000, state=UNCONGESTED)
        retx = outcomes["retransmit_fraction"]
        assert retx[capped].mean() > retx[~capped].mean()


class TestCongestionEffects:
    def test_congestion_lowers_throughput(self):
        _, calm = generate(n=10000, state=UNCONGESTED, seed=1)
        _, busy = generate(n=10000, state=CONGESTED, seed=1)
        assert busy["throughput_mbps"].mean() < calm["throughput_mbps"].mean()

    def test_congestion_raises_min_rtt(self):
        _, calm = generate(n=10000, state=UNCONGESTED, seed=2)
        _, busy = generate(n=10000, state=CONGESTED, seed=2)
        assert busy["min_rtt_ms"].mean() > calm["min_rtt_ms"].mean()

    def test_congestion_raises_play_delay(self):
        _, calm = generate(n=10000, state=UNCONGESTED, seed=3)
        _, busy = generate(n=10000, state=CONGESTED, seed=3)
        assert busy["play_delay_s"].mean() > calm["play_delay_s"].mean()

    def test_congestion_raises_rebuffers(self):
        _, calm = generate(n=10000, state=UNCONGESTED, seed=4)
        _, busy = generate(n=10000, state=CONGESTED, seed=4)
        assert busy["rebuffer_rate"].mean() > calm["rebuffer_rate"].mean()

    def test_cell_shock_scales_throughput(self):
        model = SessionOutcomeModel(noise_sigma=0.0)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        kwargs = dict(
            capped=np.zeros(1000, dtype=bool),
            state=UNCONGESTED,
            link_effects=LinkEffects(),
            cap_policy=BitrateCapPolicy(),
            account_throughput_factor=np.ones(1000),
            account_rtt_factor=np.ones(1000),
            weekend=False,
        )
        base = model.generate(rng=rng1, cell_shock=1.0, **kwargs)
        shocked = model.generate(rng=rng2, cell_shock=1.2, **kwargs)
        ratio = shocked["throughput_mbps"].mean() / base["throughput_mbps"].mean()
        assert ratio == pytest.approx(1.2, rel=0.01)


class TestLinkEffects:
    def test_rebuffer_multiplier(self):
        _, base = generate(n=10000, link=LinkEffects(), seed=6)
        _, boosted = generate(n=10000, link=LinkEffects(rebuffer_multiplier=1.2), seed=6)
        ratio = boosted["rebuffer_rate"].mean() / base["rebuffer_rate"].mean()
        assert ratio == pytest.approx(1.2, rel=0.05)

    def test_bytes_multiplier(self):
        _, base = generate(n=10000, link=LinkEffects(), seed=7)
        _, boosted = generate(n=10000, link=LinkEffects(bytes_multiplier=1.05), seed=7)
        ratio = boosted["bytes_sent_gb"].mean() / base["bytes_sent_gb"].mean()
        assert ratio == pytest.approx(1.05, rel=0.05)

    def test_weekend_increases_cancelled_starts(self):
        model = SessionOutcomeModel()
        rng1, rng2 = np.random.default_rng(8), np.random.default_rng(8)
        kwargs = dict(
            capped=np.zeros(30000, dtype=bool),
            state=UNCONGESTED,
            link_effects=LinkEffects(),
            cap_policy=BitrateCapPolicy(),
            account_throughput_factor=np.ones(30000),
            account_rtt_factor=np.ones(30000),
        )
        weekday = model.generate(weekend=False, rng=rng1, **kwargs)
        weekend = model.generate(weekend=True, rng=rng2, **kwargs)
        assert weekend["cancelled_start"].mean() > weekday["cancelled_start"].mean()


class TestTableTransform:
    """The paired-link generator draws cell by cell but transforms the
    whole table at once; both must give the same bits."""

    CELLS = [
        # (state, link effects, weekend, shock, sessions, capped fraction)
        (UNCONGESTED, LinkEffects(), False, 1.0, 31, 0.0),
        (CONGESTED, LinkEffects(rebuffer_multiplier=1.2, bytes_multiplier=1.05), True, 1.1, 9, 1.0),
        (CONGESTED, LinkEffects(stability_offset=2.0, quality_offset=-0.1), False, 0.93, 1, 0.5),
        (UNCONGESTED, LinkEffects(), True, 1.31, 60, 0.3),
    ]

    def test_table_transform_equals_per_cell_generation(self):
        model = SessionOutcomeModel()
        cap_policy = BitrateCapPolicy(cap_kbps=1750.0)
        setup = np.random.default_rng(1)
        capped = [setup.random(n) < fraction for *_, n, fraction in self.CELLS]
        account_tp = [np.exp(setup.normal(0.0, 0.25, size=c.size)) for c in capped]
        account_rtt = [np.exp(setup.normal(0.0, 0.2, size=c.size)) for c in capped]

        rng = np.random.default_rng(9)
        per_cell = [
            model.generate(c, state, effects, cap_policy, tp, rtt, weekend, rng, shock)
            for (state, effects, weekend, shock, _, _), c, tp, rtt in zip(
                self.CELLS, capped, account_tp, account_rtt
            )
        ]

        rng = np.random.default_rng(9)
        draws = [model.draw(c.size, rng) for c in capped]
        conditions = [
            CellConditions.of(state, effects, weekend, shock)
            for state, effects, weekend, shock, _, _ in self.CELLS
        ]
        sizes = [c.size for c in capped]
        table = model.outcomes(
            SessionDraws(*(np.concatenate(column) for column in zip(*draws))),
            np.concatenate(capped),
            np.concatenate(account_tp),
            np.concatenate(account_rtt),
            CellConditions(*(np.repeat(column, sizes) for column in zip(*conditions))),
            cap_policy,
        )

        assert set(table) == set(SESSION_METRICS)
        for metric in SESSION_METRICS:
            expected = np.concatenate([cell[metric] for cell in per_cell])
            assert table[metric].tobytes() == expected.tobytes(), metric

    def test_draw_equals_twelve_separate_draws(self):
        # The model draws each run of normals with one call and keeps them
        # standard; scaled by their sigmas they are the values (and leave
        # the generator in the state) of one ``size=n`` call per draw.
        model = SessionOutcomeModel()
        grouped, separate = np.random.default_rng(2), np.random.default_rng(2)
        draws = model.draw(17, grouped)
        sigmas = {"access": model.access_throughput_sigma, "base_rtt": model.base_rtt_sigma}
        sigmas |= {"quality": 0.5, "stability": 1.0}
        for field in SessionDraws._fields:
            if field == "viewing_hours":
                expected = separate.exponential(model.viewing_hours_mean, size=17)
                got = draws.viewing_hours
            elif field == "cancel":
                expected, got = separate.random(17), draws.cancel
            else:
                sigma = sigmas.get(field, model.noise_sigma)
                expected = separate.normal(0.0, sigma, size=17)
                got = sigma * getattr(draws, field)
            assert got.tobytes() == expected.tobytes(), field
        assert grouped.random() == separate.random()
