"""Units and outcome tables for the potential-outcomes framework.

In the paper (Section 2) a *unit* is anything that can be independently
allocated to treatment or control: a user, a session, a flow, a connection,
a server.  All of the paper's production experiments use *video sessions*
as units, with outcomes recorded per session and later aggregated by hour
or by account.

This module provides:

* :class:`Unit` — the generic experimental unit.
* :class:`Session` — a video-streaming session unit carrying the QoE and
  network metrics used throughout Sections 4 and 5.
* :class:`OutcomeTable` — a column-oriented container of per-unit outcomes
  that the estimators and the regression analysis operate on.
* :func:`group_means` — the one grouping rule that every grouped mean in
  :mod:`repro.core` uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

__all__ = [
    "Unit",
    "Session",
    "SESSION_METRICS",
    "OutcomeTable",
    "group_means",
]


@dataclass(frozen=True)
class Unit:
    """A generic experimental unit.

    Parameters
    ----------
    unit_id:
        Unique identifier of the unit within an experiment.
    account_id:
        Identifier of the account (user) the unit belongs to.  Several
        units may share an account; account-level aggregation clusters
        standard errors on this key.
    attributes:
        Arbitrary extra covariates (e.g. the link a session used, the ISP,
        the device type).  Covariates never influence treatment assignment
        in a randomized design, but they are available for targeting and
        for stratified analysis.
    """

    unit_id: int
    account_id: int = 0
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def with_attributes(self, **extra: Any) -> "Unit":
        """Return a copy of the unit with additional attributes merged in."""
        merged = dict(self.attributes)
        merged.update(extra)
        return Unit(self.unit_id, self.account_id, merged)


#: Metric names carried by :class:`Session`, in the order the paper's
#: Figure 5 reports them.  These are the outcomes of the bitrate-capping
#: experiment; the sign convention is "higher is more of the quantity"
#: (not "higher is better").
SESSION_METRICS: tuple[str, ...] = (
    "throughput_mbps",
    "min_rtt_ms",
    "play_delay_s",
    "video_bitrate_kbps",
    "retransmit_fraction",
    "rebuffer_rate",
    "cancelled_start",
    "perceptual_quality",
    "stability",
    "bytes_sent_gb",
)


@dataclass
class Session:
    """A single video-streaming session and its observed outcomes.

    A session is the unit of randomization in the paper's production
    experiments (Section 4).  Each session belongs to an account, starts in
    a particular hour on a particular day, is served over one of the two
    peering links, and is assigned to treatment (bitrate capping) or
    control.

    The outcome attributes mirror the metrics reported in Figure 5 of the
    paper.  All are per-session scalars:

    ``throughput_mbps``
        Client-reported average throughput over the session.
    ``min_rtt_ms``
        Minimum round-trip time observed during the session.  Standing
        queues at a congested link raise even the minimum RTT.
    ``play_delay_s``
        Start play delay: time from request to first frame.
    ``video_bitrate_kbps``
        Average video bitrate selected by the ABR algorithm.
    ``retransmit_fraction``
        Fraction of sent bytes that were retransmitted.
    ``rebuffer_rate``
        Rebuffer events per hour of viewing.
    ``cancelled_start``
        1.0 if the user abandoned the session before playback started.
    ``perceptual_quality``
        Perceptual quality score (e.g. VMAF-like, 0-100).
    ``stability``
        Video stability metric: 100 minus the number of bitrate switches
        per hour, clipped at zero.
    ``bytes_sent_gb``
        Total bytes delivered to the client, in gigabytes.
    """

    session_id: int
    account_id: int
    day: int
    hour: int
    link: int
    treated: bool
    throughput_mbps: float = 0.0
    min_rtt_ms: float = 0.0
    play_delay_s: float = 0.0
    video_bitrate_kbps: float = 0.0
    retransmit_fraction: float = 0.0
    rebuffer_rate: float = 0.0
    cancelled_start: float = 0.0
    perceptual_quality: float = 0.0
    stability: float = 0.0
    bytes_sent_gb: float = 0.0

    def metric(self, name: str) -> float:
        """Return the value of the named outcome metric."""
        if name not in SESSION_METRICS:
            raise KeyError(f"unknown session metric: {name!r}")
        return float(getattr(self, name))

    def as_dict(self) -> dict[str, Any]:
        """Return the session as a plain dictionary (useful for tables)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class OutcomeTable:
    """Column-oriented container of per-unit experimental data.

    The table stores, for every unit, its treatment indicator, grouping
    keys (hour, day, account, link, ...) and one column per outcome metric.
    Estimators (:mod:`repro.core.estimators`) and the regression analysis
    (:mod:`repro.core.analysis`) consume :class:`OutcomeTable` instances.

    The container intentionally has a very small surface: it is a thin,
    dependency-free stand-in for a dataframe, backed by numpy arrays.
    """

    def __init__(self, columns: Mapping[str, Sequence[float] | np.ndarray]):
        if not columns:
            raise ValueError("OutcomeTable requires at least one column")
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0]}, expected {length}"
                )
            self._columns[name] = arr
        self._length = int(length or 0)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_sessions(cls, sessions: Iterable[Session]) -> "OutcomeTable":
        """Build a table from an iterable of :class:`Session` objects."""
        sessions = list(sessions)
        if not sessions:
            raise ValueError("cannot build an OutcomeTable from zero sessions")
        cols: dict[str, list[float]] = {
            "session_id": [],
            "account_id": [],
            "day": [],
            "hour": [],
            "link": [],
            "treated": [],
        }
        for name in SESSION_METRICS:
            cols[name] = []
        for s in sessions:
            cols["session_id"].append(float(s.session_id))
            cols["account_id"].append(float(s.account_id))
            cols["day"].append(float(s.day))
            cols["hour"].append(float(s.hour))
            cols["link"].append(float(s.link))
            cols["treated"].append(1.0 if s.treated else 0.0)
            for name in SESSION_METRICS:
                cols[name].append(s.metric(name))
        return cls(cols)

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, float]]) -> "OutcomeTable":
        """Build a table from a sequence of dictionaries with identical keys."""
        if not records:
            raise ValueError("cannot build an OutcomeTable from zero records")
        # Sorted so the column order is a function of the key set, not of
        # the first record's incidental insertion order.
        keys = sorted(records[0])
        cols = {k: [float(r[k]) for r in records] for k in keys}
        return cls(cols)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Names of all columns in the table."""
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Return the named column as a numpy array (a copy-free view)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self._columns)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    # -- transformations ---------------------------------------------------

    def select(self, mask: np.ndarray) -> "OutcomeTable":
        """Return a new table containing only the rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._length:
            raise ValueError("mask length does not match table length")
        return OutcomeTable({k: v[mask] for k, v in self._columns.items()})

    def where(self, **conditions: float) -> "OutcomeTable":
        """Return rows where every named column equals the given value.

        Example
        -------
        ``table.where(link=1, treated=1)`` selects treated sessions on link 1.
        """
        mask = np.ones(self._length, dtype=bool)
        for name, value in conditions.items():
            mask &= self.column(name) == float(value)
        return self.select(mask)

    def with_column(self, name: str, values: Sequence[float] | np.ndarray) -> "OutcomeTable":
        """Return a new table with an added or replaced column."""
        arr = np.asarray(values, dtype=float)
        if arr.shape[0] != self._length:
            raise ValueError("new column length does not match table length")
        cols = dict(self._columns)
        cols[name] = arr
        return OutcomeTable(cols)

    def concat(self, other: "OutcomeTable") -> "OutcomeTable":
        """Concatenate two tables that share the same columns."""
        if set(self._columns) != set(other._columns):
            raise ValueError("cannot concatenate tables with different columns")
        return OutcomeTable(
            {k: np.concatenate([v, other._columns[k]]) for k, v in self._columns.items()}
        )

    # -- summaries ----------------------------------------------------------

    def mean(self, name: str) -> float:
        """Mean of the named column."""
        col = self.column(name)
        if col.size == 0:
            raise ValueError(f"column {name!r} is empty; cannot take mean")
        return float(np.mean(col))

    def groupby_mean(self, key: str, value: str) -> dict[float, float]:
        """Mean of ``value`` for each distinct value of ``key``, in key order."""
        keys = self.column(key)
        first, means, _ = group_means(self.column(value), keys)
        return dict(zip(keys[first].tolist(), means.tolist()))

    def to_records(self) -> list[dict[str, float]]:
        """Return the table as a list of row dictionaries."""
        names = self.column_names
        arrays = [self._columns[n] for n in names]
        return [
            {n: float(a[i]) for n, a in zip(names, arrays)} for i in range(self._length)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutcomeTable(rows={self._length}, columns={self.column_names})"


def group_means(
    values: np.ndarray, *keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean of the float ``values`` over each group of rows with equal keys.

    ``keys`` are arrays as long as ``values``, in :func:`numpy.lexsort`
    order: the last key sorts first.  Returns ``(first_row, means,
    counts)``, one entry per group in key order: the index of the group's
    first row, the mean of its values and its number of rows.

    One stable sort groups the rows, so each group's rows keep their table
    order.  Each mean is ``np.add.reduce`` over the group's contiguous run
    of sorted values, divided by its size.  That is how ``ndarray.mean``
    adds, so each mean is bit for bit the mean of a boolean-mask selection
    of the group.  ``np.add.reduceat`` and ``np.bincount`` add in another
    order and change the last bits.
    """
    order = np.lexsort(keys)
    is_start = np.zeros(order.size, dtype=bool)
    is_start[:1] = True
    for key in keys:
        ranked = key[order]
        is_start[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(is_start)
    counts = np.diff(starts, append=order.size)
    ranked = values[order]
    sums = [np.add.reduce(ranked[s:s + n]) for s, n in zip(starts.tolist(), counts.tolist())]
    return order[starts], np.array(sums, dtype=float) / counts, counts
