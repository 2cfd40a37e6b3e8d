"""Paired-link video workload generator.

This is the synthetic stand-in for the production system of Section 4: a
location with two identical clusters, each behind its own congested
100 Gb/s peering link to the same ISP.  Demand on each link follows the
diurnal curve; each session is assigned to treatment (bitrate capping) or
control according to an :class:`~repro.core.designs.base.AllocationPlan`;
the aggregate offered load of a link-hour determines its congestion state;
and per-session outcomes are drawn from the QoE model.

Because congestion is computed from the *total* load on a link, capping a
large fraction of a link's traffic delays congestion onset and softens it
— improving outcomes for every session on that link, treated or not.
Capping a small fraction barely changes the link's load, so treated and
control sessions both see the original congestion.  This is precisely the
interference mechanism the paper identifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.designs.base import AllocationPlan
from repro.core.units import SESSION_METRICS, OutcomeTable
from repro.workload.congestion import CongestionModel, LinkHourState
from repro.workload.demand import DiurnalDemandModel
from repro.workload.qoe import CellConditions, LinkEffects, SessionDraws, SessionOutcomeModel
from repro.workload.video import BitrateCapPolicy

__all__ = ["WorkloadConfig", "PairedLinkWorkload", "DEFAULT_LINK_EFFECTS"]


#: Pre-existing differences between the two links measured in the paper's
#: baseline week: link 1 had ~20 % more rebuffers, ~5 % more bytes, ~2 %
#: higher stability and ~0.1 % lower perceptual quality than link 2.
DEFAULT_LINK_EFFECTS: dict[int, LinkEffects] = {
    1: LinkEffects(
        rebuffer_multiplier=1.20,
        bytes_multiplier=1.05,
        stability_offset=2.0,
        quality_offset=-0.1,
    ),
    2: LinkEffects(),
}


@dataclass(frozen=True)
class WorkloadConfig:
    """Configuration of the paired-link workload.

    Parameters
    ----------
    links:
        Link identifiers (paper: links 1 and 2).
    sessions_at_peak:
        Expected number of session arrivals per link during the weekday
        peak hour.  Total session counts scale with this.
    n_accounts:
        Size of the account population per link (sessions are assigned to
        accounts uniformly; accounts carry persistent access-network
        effects).
    capacity_gbps:
        Capacity of each peering link.
    uncapped_nominal_mbps:
        Average offered rate of an uncapped session while streaming.
    capped_nominal_mbps:
        Average offered rate of a capped session (the paper reports
        capping reduced traffic by ~25 %).
    peak_utilization_uncapped:
        Link utilization reached at the weekday peak hour when *no* traffic
        is capped.  Values above 1 make the link reliably congested during
        peak hours, as in the paper.
    cap_policy:
        The bitrate cap applied to treated sessions.
    demand, congestion, outcomes:
        The demand curve, congestion model and per-session outcome model.
    link_effects:
        Persistent per-link differences.
    hourly_shock_sigma:
        Log-normal sigma of a shock shared by all sessions in a link-hour
        cell.  Non-zero values create the within-hour correlation that the
        paper's conservative hourly-aggregation analysis is designed to be
        robust to (Figure 13).
    seed:
        Master random seed.
    """

    links: tuple[int, ...] = (1, 2)
    sessions_at_peak: int = 400
    n_accounts: int = 5000
    capacity_gbps: float = 100.0
    uncapped_nominal_mbps: float = 4.6
    capped_nominal_mbps: float = 3.45
    peak_utilization_uncapped: float = 1.32
    cap_policy: BitrateCapPolicy = field(default_factory=BitrateCapPolicy)
    demand: DiurnalDemandModel = field(default_factory=DiurnalDemandModel)
    congestion: CongestionModel = field(default_factory=CongestionModel)
    outcomes: SessionOutcomeModel = field(default_factory=SessionOutcomeModel)
    link_effects: Mapping[int, LinkEffects] = field(
        default_factory=lambda: dict(DEFAULT_LINK_EFFECTS)
    )
    hourly_shock_sigma: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.links) < 1:
            raise ValueError("at least one link is required")
        if self.sessions_at_peak <= 0:
            raise ValueError("sessions_at_peak must be positive")
        if self.n_accounts <= 0:
            raise ValueError("n_accounts must be positive")
        if self.uncapped_nominal_mbps <= 0 or self.capped_nominal_mbps <= 0:
            raise ValueError("nominal session rates must be positive")
        if self.capped_nominal_mbps > self.uncapped_nominal_mbps:
            raise ValueError("capping cannot increase a session's offered rate")
        if self.peak_utilization_uncapped <= 0:
            raise ValueError("peak_utilization_uncapped must be positive")

    @property
    def concurrency_factor(self) -> float:
        """Scale from per-hour arrivals to concurrent offered load.

        Chosen so that a weekday peak hour with every session uncapped
        offers ``peak_utilization_uncapped * capacity`` to the link.
        """
        peak_sessions = self.sessions_at_peak * self.demand.peak_relative_demand()
        peak_offered_mbps = peak_sessions * self.uncapped_nominal_mbps
        target_mbps = self.peak_utilization_uncapped * self.capacity_gbps * 1000.0
        return target_mbps / peak_offered_mbps


class PairedLinkWorkload:
    """Generates session-level outcomes for the paired-link experiment."""

    def __init__(self, config: WorkloadConfig | None = None):
        self.config = config or WorkloadConfig()
        rng = np.random.default_rng(self.config.seed)
        # Persistent per-account effects: shared access network quality.
        self._account_throughput_factor = np.exp(
            rng.normal(0.0, 0.25, size=self.config.n_accounts)
        )
        self._account_rtt_factor = np.exp(
            rng.normal(0.0, 0.20, size=self.config.n_accounts)
        )

    # -- load / congestion --------------------------------------------------------

    def offered_load_gbps(self, n_uncapped: int, n_capped: int) -> float:
        """Offered load on a link given the mix of active sessions."""
        cfg = self.config
        offered_mbps = cfg.concurrency_factor * (
            n_uncapped * cfg.uncapped_nominal_mbps + n_capped * cfg.capped_nominal_mbps
        )
        return offered_mbps / 1000.0

    def link_hour_state(self, n_uncapped: int, n_capped: int) -> LinkHourState:
        """Congestion state of a link-hour with the given session mix."""
        return self.config.congestion.state_for_load(
            self.offered_load_gbps(n_uncapped, n_capped)
        )

    # -- generation ------------------------------------------------------------------

    def generate(
        self,
        plan: AllocationPlan,
        days: Sequence[int],
        treatment_active: bool = True,
        seed_offset: int = 1,
    ) -> OutcomeTable:
        """Generate the session table for an experiment.

        Parameters
        ----------
        plan:
            Allocation plan giving the treated fraction per (link, day).
        days:
            Days to simulate (day 0 is the first experiment day).
        treatment_active:
            When False, sessions are still labelled treated/control but the
            cap is not actually applied — an A/A test.
        seed_offset:
            Offset added to the master seed so different runs (baseline,
            main experiment, A/A week) draw different randomness.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + seed_offset)

        # Draw cell by cell, in a fixed order (that order pins the tables);
        # every deterministic step then runs once over the whole table.
        sizes: list[int] = []
        cells: list[tuple[int, int, int]] = []
        conditions: list[CellConditions] = []
        treated_parts: list[np.ndarray] = []
        account_parts: list[np.ndarray] = []
        draws: list[SessionDraws] = []
        for day in days:
            day = int(day)
            weekend = cfg.demand.is_weekend(day)
            for link in cfg.links:
                allocation = plan.allocation(link, day)
                effects = cfg.link_effects.get(int(link), LinkEffects())
                for hour in range(24):
                    n = cfg.demand.sessions_in_hour(day, hour, cfg.sessions_at_peak, rng)
                    if n == 0:
                        continue
                    treated = rng.random(n) < allocation
                    n_capped = int((treated & treatment_active).sum())
                    state = self.link_hour_state(n - n_capped, n_capped)
                    account_ids = rng.integers(0, cfg.n_accounts, size=n)
                    cell_shock = (
                        float(np.exp(rng.normal(0.0, cfg.hourly_shock_sigma)))
                        if cfg.hourly_shock_sigma > 0
                        else 1.0
                    )
                    draws.append(cfg.outcomes.draw(n, rng))
                    sizes.append(n)
                    cells.append((day, hour, link))
                    conditions.append(CellConditions.of(state, effects, weekend, cell_shock))
                    treated_parts.append(treated)
                    account_parts.append(account_ids)

        if not sizes:
            raise ValueError("the workload generated zero sessions")
        day_column, hour_column, link_column = (
            np.repeat(np.asarray(column, dtype=float), sizes) for column in zip(*cells)
        )
        treated = np.concatenate(treated_parts)
        account_ids = np.concatenate(account_parts)
        outcomes = cfg.outcomes.outcomes(
            SessionDraws(*(np.concatenate(column) for column in zip(*draws))),
            treated & treatment_active,
            self._account_throughput_factor[account_ids],
            self._account_rtt_factor[account_ids],
            CellConditions(*(np.repeat(column, sizes) for column in zip(*conditions))),
            cfg.cap_policy,
        )
        columns = {
            "session_id": np.arange(len(treated), dtype=float),
            "account_id": account_ids.astype(float),
            "day": day_column,
            "hour": hour_column,
            "link": link_column,
            "treated": treated.astype(float),
        }
        columns.update((name, outcomes[name]) for name in SESSION_METRICS)
        return OutcomeTable(columns)

    def generate_baseline(
        self, days: Sequence[int], seed_offset: int = 101
    ) -> OutcomeTable:
        """Generate a baseline period with no treatment anywhere."""
        plan = AllocationPlan({}, default=0.0)
        return self.generate(
            plan, days, treatment_active=False, seed_offset=seed_offset
        )

    def generate_aa_test(
        self,
        days: Sequence[int],
        allocation: float = 0.5,
        seed_offset: int = 202,
    ) -> OutcomeTable:
        """Generate an A/A week: sessions are labelled but never capped."""
        plan = AllocationPlan({}, default=allocation)
        return self.generate(
            plan, days, treatment_active=False, seed_offset=seed_offset
        )
