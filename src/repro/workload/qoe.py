"""Per-session QoE and network outcome model.

Given the congestion state of the link-hour a session lands in, whether the
session itself is bitrate-capped, and per-link / per-account heterogeneity,
this module generates the ten outcome metrics reported in the paper's
Figure 5.  The random draws are made cell by cell, in a fixed order;
every deterministic step after them is elementwise numpy, so it runs
over one (link, day, hour) cell or over a whole table of cells at once
with the same results.

The model encodes the causal structure the paper identifies:

* Congestion is a property of the *link-hour*, driven by total offered
  load — so capped and uncapped sessions sharing a link see nearly the same
  congestion (small within-link differences only), while links with
  different treated fractions see very different congestion.
* The cap directly lowers the session's own video bitrate, bytes sent and
  (slightly) its measured throughput, independent of other traffic.
* Rebuffers and stability depend on how close the selected bitrate is to
  the achievable throughput ("pressure"), so capped sessions rebuffer less
  even under identical congestion.
* Observed minimum RTT is the standing-queue delay attenuated by a
  sampling-relief term that grows with how much the session sends: large
  (uncapped) sessions take more RTT samples and are more likely to catch a
  momentarily empty queue, so *within a link* capped sessions report a
  slightly higher minimum RTT — reproducing the paper's wrong-signed naive
  A/B estimate for that metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.workload.congestion import LinkHourState
from repro.workload.video import (
    BITRATE_LADDER_KBPS,
    BitrateCapPolicy,
    select_bitrate_array,
)

__all__ = ["CellConditions", "LinkEffects", "SessionDraws", "SessionOutcomeModel"]


@dataclass(frozen=True)
class LinkEffects:
    """Persistent per-link differences unrelated to the treatment.

    These reproduce the pre-existing differences the paper measured in its
    baseline week: link 1 served slightly different content and had about
    20 % more sessions with rebuffers, 5 % more bytes, 2 % higher stability
    and 0.1 % lower perceptual quality than link 2.
    """

    rebuffer_multiplier: float = 1.0
    bytes_multiplier: float = 1.0
    stability_offset: float = 0.0
    quality_offset: float = 0.0


class SessionDraws(NamedTuple):
    """The twelve random draws behind sessions' outcomes, one array each.

    Fields are in draw order; :meth:`SessionOutcomeModel.draw` makes them
    and :meth:`SessionOutcomeModel.outcomes` turns them into metrics.
    Every field but ``viewing_hours`` and ``cancel`` holds standard
    normals, which :meth:`~SessionOutcomeModel.outcomes` scales by the
    draw's sigma: ``rng.normal(0, sigma)`` is ``sigma`` times the
    generator's next standard normal, bit for bit.
    """

    access: np.ndarray
    throughput_noise: np.ndarray
    base_rtt: np.ndarray
    rtt_noise: np.ndarray
    delay_noise: np.ndarray
    viewing_hours: np.ndarray
    bytes_noise: np.ndarray
    retransmit_noise: np.ndarray
    rebuffer_noise: np.ndarray
    cancel: np.ndarray
    quality: np.ndarray
    stability: np.ndarray


class CellConditions(NamedTuple):
    """What a link-hour cell imposes on every one of its sessions.

    Each field is one cell's value, or an array holding the value of each
    session's cell when a whole table is transformed at once.
    """

    throughput_factor: float | np.ndarray
    queueing_delay_ms: float | np.ndarray
    loss_rate: float | np.ndarray
    rebuffer_multiplier: float | np.ndarray
    bytes_multiplier: float | np.ndarray
    stability_offset: float | np.ndarray
    quality_offset: float | np.ndarray
    weekend: bool | np.ndarray
    cell_shock: float | np.ndarray

    @classmethod
    def of(
        cls, state: LinkHourState, link_effects: LinkEffects, weekend: bool, cell_shock: float
    ) -> "CellConditions":
        """The conditions of one cell."""
        return cls(
            state.throughput_factor,
            state.queueing_delay_ms,
            state.loss_rate,
            link_effects.rebuffer_multiplier,
            link_effects.bytes_multiplier,
            link_effects.stability_offset,
            link_effects.quality_offset,
            bool(weekend),
            float(cell_shock),
        )


@dataclass(frozen=True)
class SessionOutcomeModel:
    """Parameters of the per-session outcome generator.

    The defaults are calibrated so the paired-link experiment reproduces
    the qualitative pattern of the paper's Figure 5: naive A/B estimates
    that are near zero or wrong-signed for throughput, minimum RTT and play
    delay, alongside large genuine total treatment effects and positive
    spillovers.
    """

    #: Median uncongested per-session (access-limited) throughput, Mb/s.
    access_throughput_median_mbps: float = 8.0
    #: Log-normal sigma of access throughput across sessions.
    access_throughput_sigma: float = 0.45
    #: Multiplier on measured throughput for capped sessions: capped clients
    #: request smaller chunks, so their throughput samples sit slightly
    #: lower even on an uncongested path.
    capped_measurement_factor: float = 0.97
    #: Median base (propagation) RTT, milliseconds.
    base_rtt_median_ms: float = 18.0
    #: Log-normal sigma of base RTT across accounts.
    base_rtt_sigma: float = 0.30
    #: Fraction of the standing-queue delay that an uncapped session's
    #: minimum-RTT measurement escapes (more samples -> better minimum).
    rtt_sampling_relief_uncapped: float = 0.18
    #: Same for capped sessions (fewer samples -> worse minimum).
    rtt_sampling_relief_capped: float = 0.06
    #: Startup buffer that must be downloaded before playback, megabytes.
    startup_buffer_mb: float = 5.0
    #: Fixed component of start play delay (licensing, manifest, DRM), seconds.
    play_delay_floor_s: float = 0.7
    #: Mean viewing duration, hours.
    viewing_hours_mean: float = 1.0
    #: Non-congestive (transmission) loss floor.
    base_loss_rate: float = 0.002
    #: Per-session retransmitted bytes independent of volume (startup burst
    #: and tail losses), megabytes.
    fixed_retransmit_mb: float = 3.5
    #: Baseline rebuffer events per viewing hour on an uncongested link.
    base_rebuffer_rate: float = 0.08
    #: Baseline probability that a start is cancelled.
    base_cancel_probability: float = 0.04
    #: Additional cancel probability per second of play delay above one second.
    cancel_per_delay_second: float = 0.012
    #: Weekend multiplier on cancelled starts (more casual browsing).
    weekend_cancel_multiplier: float = 1.25
    #: Perceptual-quality saturation constant (kb/s).
    quality_scale_kbps: float = 900.0
    #: Relative measurement noise applied to continuous metrics.
    noise_sigma: float = 0.05
    #: Encoding ladder.
    ladder: tuple[float, ...] = BITRATE_LADDER_KBPS

    # -- generation -------------------------------------------------------------

    def draw(self, n: int, rng: np.random.Generator) -> SessionDraws:
        """The random draws behind ``n`` sessions' outcomes, in draw order.

        Each run of consecutive normal draws is one call: row ``i`` of
        ``rng.standard_normal((k, n))`` holds the values of the ``i``-th of
        ``k`` successive ``size=n`` draws.
        """
        access, throughput_noise, base_rtt, rtt_noise, delay_noise = rng.standard_normal((5, n))
        viewing_hours = rng.exponential(self.viewing_hours_mean, size=n)
        bytes_noise, retransmit_noise, rebuffer_noise = rng.standard_normal((3, n))
        cancel = rng.random(n)
        quality, stability = rng.standard_normal((2, n))
        return SessionDraws(
            access,
            throughput_noise,
            base_rtt,
            rtt_noise,
            delay_noise,
            viewing_hours,
            bytes_noise,
            retransmit_noise,
            rebuffer_noise,
            cancel,
            quality,
            stability,
        )

    def generate(
        self,
        capped: np.ndarray,
        state: LinkHourState,
        link_effects: LinkEffects,
        cap_policy: BitrateCapPolicy,
        account_throughput_factor: np.ndarray,
        account_rtt_factor: np.ndarray,
        weekend: bool,
        rng: np.random.Generator,
        cell_shock: float = 1.0,
    ) -> dict[str, np.ndarray]:
        """Generate outcome arrays for the sessions of one link-hour cell.

        Parameters
        ----------
        capped:
            Boolean array marking which sessions are bitrate-capped.
        state:
            The link-hour's congestion state.
        link_effects:
            Persistent per-link differences.
        cap_policy:
            The cap applied to treated sessions.
        account_throughput_factor, account_rtt_factor:
            Per-session multiplicative account effects (arrays aligned with
            ``capped``), modelling that sessions of the same account share
            an access network.
        weekend:
            Whether the cell falls on a weekend day.
        rng:
            Random generator.
        cell_shock:
            Multiplicative shock shared by *every* session in this link-hour
            cell (transit weather, routing changes, content mix).  Shared
            shocks are why the paper's hourly aggregation — which treats
            sessions within an hour as perfectly correlated — produces much
            wider confidence intervals than the account-level analysis.
        """
        capped = np.asarray(capped, dtype=bool)
        n = capped.shape[0]
        if n == 0:
            return {}
        account_throughput_factor = np.asarray(account_throughput_factor, dtype=float)
        account_rtt_factor = np.asarray(account_rtt_factor, dtype=float)
        if account_throughput_factor.shape[0] != n or account_rtt_factor.shape[0] != n:
            raise ValueError("account effect arrays must match the number of sessions")
        return self.outcomes(
            self.draw(n, rng),
            capped,
            account_throughput_factor,
            account_rtt_factor,
            CellConditions.of(state, link_effects, weekend, cell_shock),
            cap_policy,
        )

    def outcomes(
        self,
        draws: SessionDraws,
        capped: np.ndarray,
        account_throughput_factor: np.ndarray,
        account_rtt_factor: np.ndarray,
        cells: CellConditions,
        cap_policy: BitrateCapPolicy,
    ) -> dict[str, np.ndarray]:
        """Outcome arrays of sessions from their draws and conditions.

        Every array argument holds one entry per session.  ``cells`` holds
        either one cell's conditions or, for a table of many cells, each
        session's cell conditions; the result is the same either way, bit
        for bit, because every step is elementwise.
        """

        def noise(standard_normal: np.ndarray) -> np.ndarray:
            return np.exp(self.noise_sigma * standard_normal)

        # --- throughput ------------------------------------------------------
        access = (
            self.access_throughput_median_mbps
            * np.exp(self.access_throughput_sigma * draws.access)
            * account_throughput_factor
            * cells.cell_shock
        )
        network_throughput = access * cells.throughput_factor
        measurement_factor = np.where(capped, self.capped_measurement_factor, 1.0)
        throughput_mbps = network_throughput * measurement_factor * noise(draws.throughput_noise)

        # --- video bitrate -----------------------------------------------------
        uncapped_bitrate = select_bitrate_array(throughput_mbps, self.ladder)
        capped_ladder = cap_policy.ladder(self.ladder)
        capped_bitrate = select_bitrate_array(throughput_mbps, capped_ladder)
        video_bitrate_kbps = np.where(capped, capped_bitrate, uncapped_bitrate)

        # --- minimum RTT --------------------------------------------------------
        base_rtt = (
            self.base_rtt_median_ms
            * np.exp(self.base_rtt_sigma * draws.base_rtt)
            * account_rtt_factor
        )
        relief = np.where(
            capped, self.rtt_sampling_relief_capped, self.rtt_sampling_relief_uncapped
        )
        min_rtt_ms = base_rtt + cells.queueing_delay_ms * (1.0 - relief) * noise(draws.rtt_noise)

        # --- start play delay ----------------------------------------------------
        startup_bits = self.startup_buffer_mb * 8e6
        transfer_s = startup_bits / np.maximum(network_throughput * 1e6, 1e5)
        rtt_penalty_s = 6.0 * (base_rtt + cells.queueing_delay_ms) / 1000.0
        play_delay_s = (self.play_delay_floor_s + transfer_s + rtt_penalty_s) * noise(
            draws.delay_noise
        )

        # --- bytes sent -------------------------------------------------------------
        viewing_hours = np.clip(draws.viewing_hours, 0.05, 6.0)
        bytes_sent_gb = (
            video_bitrate_kbps * 1000.0 * viewing_hours * 3600.0 / 8.0 / 1e9
        ) * cells.bytes_multiplier * noise(draws.bytes_noise)

        # --- retransmissions -----------------------------------------------------------
        loss_rate = self.base_loss_rate + cells.loss_rate
        sent_bytes = np.maximum(bytes_sent_gb * 1e9, 1e6)
        fixed_retx = self.fixed_retransmit_mb * 1e6
        retransmit_fraction = np.clip(
            (loss_rate * sent_bytes + fixed_retx) / sent_bytes * noise(draws.retransmit_noise),
            0.0,
            1.0,
        )

        # --- rebuffers --------------------------------------------------------------------
        pressure = video_bitrate_kbps / np.maximum(network_throughput * 1000.0, 1.0)
        rebuffer_rate = (
            self.base_rebuffer_rate
            * cells.rebuffer_multiplier
            * (0.7 + 1.2 * np.clip(pressure, 0.0, 2.0) ** 2)
            * (1.0 + 25.0 * cells.loss_rate)
            * noise(draws.rebuffer_noise)
        )

        # --- cancelled starts ---------------------------------------------------------
        cancel_probability = (
            self.base_cancel_probability
            + self.cancel_per_delay_second * np.maximum(play_delay_s - 1.0, 0.0)
        )
        cancel_probability = np.where(
            cells.weekend, cancel_probability * self.weekend_cancel_multiplier, cancel_probability
        )
        cancelled_start = (draws.cancel < np.clip(cancel_probability, 0.0, 0.9)).astype(float)

        # --- perceptual quality and stability ----------------------------------------------------
        # The quality draw has sigma 0.5 and the stability draw sigma 1.
        perceptual_quality = np.clip(
            100.0 * (1.0 - np.exp(-video_bitrate_kbps / self.quality_scale_kbps))
            + cells.quality_offset
            + 0.5 * draws.quality,
            0.0,
            100.0,
        )
        switches = 2.0 + 15.0 * np.clip(pressure - 0.5, 0.0, 2.0) * (
            1.0 + 5.0 * cells.loss_rate
        )
        stability = np.clip(
            100.0 - switches + cells.stability_offset + draws.stability,
            0.0,
            100.0,
        )

        return {
            "throughput_mbps": throughput_mbps,
            "min_rtt_ms": min_rtt_ms,
            "play_delay_s": play_delay_s,
            "video_bitrate_kbps": video_bitrate_kbps,
            "retransmit_fraction": retransmit_fraction,
            "rebuffer_rate": rebuffer_rate,
            "cancelled_start": cancelled_start,
            "perceptual_quality": perceptual_quality,
            "stability": stability,
            "bytes_sent_gb": bytes_sent_gb,
        }
