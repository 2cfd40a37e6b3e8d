"""Outcome tables for the potential-outcomes framework.

In the paper (Section 2) a *unit* is anything that can be independently
allocated to treatment or control: a user, a session, a flow, a connection,
a server.  All of the paper's production experiments use *video sessions*
as units, with outcomes recorded per session and later aggregated by hour
or by account.

This module provides:

* :data:`SESSION_METRICS` — the per-session QoE and network metrics used
  throughout Sections 4 and 5.
* :class:`OutcomeTable` — a column-oriented container of per-unit outcomes
  that the estimators and the regression analysis operate on.
* :func:`group_means` — the one grouping rule that every grouped mean in
  :mod:`repro.core` uses.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "SESSION_METRICS",
    "OutcomeTable",
    "group_means",
]


#: Per-session outcome metrics, in the order the paper's Figure 5 reports
#: them.  These are the outcomes of the bitrate-capping experiment; the
#: sign convention is "higher is more of the quantity" (not "higher is
#: better").  Each is a per-session scalar:
#:
#: ``throughput_mbps``
#:     Client-reported average throughput over the session.
#: ``min_rtt_ms``
#:     Minimum round-trip time observed during the session.  Standing
#:     queues at a congested link raise even the minimum RTT.
#: ``play_delay_s``
#:     Start play delay: time from request to first frame.
#: ``video_bitrate_kbps``
#:     Average video bitrate selected by the ABR algorithm.
#: ``retransmit_fraction``
#:     Fraction of sent bytes that were retransmitted.
#: ``rebuffer_rate``
#:     Rebuffer events per hour of viewing.
#: ``cancelled_start``
#:     1.0 if the user abandoned the session before playback started.
#: ``perceptual_quality``
#:     Perceptual quality score (e.g. VMAF-like, 0-100).
#: ``stability``
#:     Video stability metric: 100 minus the number of bitrate switches
#:     per hour, clipped at zero.
#: ``bytes_sent_gb``
#:     Total bytes delivered to the client, in gigabytes.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutcomeTable(rows={self._length}, columns={self.column_names})"


#: Group size from which ``np.add.reduce`` switches from a left-to-right
#: sum to its pairwise one (numpy's ``pairwise_sum`` block).
_PAIRWISE_MIN = 8


def group_means(
    values: np.ndarray, *keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean of the float ``values`` over each group of rows with equal keys.

    ``keys`` are arrays as long as ``values``, in :func:`numpy.lexsort`
    order: the last key sorts first.  Returns ``(first_row, means,
    counts)``, one entry per group in key order: the index of the group's
    first row, the mean of its values and its number of rows.

    One stable sort groups the rows, so each group's rows keep their table
    order.  Each mean is the group's sum divided by its size, and each sum
    is the one ``np.add.reduce`` makes over the group's contiguous run of
    sorted values.  That is how ``ndarray.mean`` adds, so each mean is bit
    for bit the mean of a boolean-mask selection of the group.
    ``np.add.reduce`` adds fewer than 8 values left to right from +0.0, so
    those groups are summed all at once: their rows are laid out as a
    zero-padded matrix, one group a row, whose columns are added left to
    right.  A sum that starts at +0.0 is never -0.0, so adding a padded
    +0.0 leaves it as it is.  From 8 values numpy sums pairwise, so larger
    groups keep one ``np.add.reduce`` each.  ``np.add.reduceat`` and
    ``np.bincount`` add in another order and change the last bits.
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
    sums = np.empty(counts.size)
    small = counts < _PAIRWISE_MIN
    columns = np.arange(_PAIRWISE_MIN - 1)
    has_row = columns < counts[small, None]
    padded = np.zeros(has_row.shape)
    padded[has_row] = ranked[(starts[small, None] + columns)[has_row]]
    small_sums = np.zeros(padded.shape[0])
    for column in padded.T:
        small_sums += column
    sums[small] = small_sums
    large = np.flatnonzero(~small)
    for i, s, n in zip(large.tolist(), starts[large].tolist(), counts[large].tolist()):
        sums[i] = np.add.reduce(ranked[s : s + n])
    return order[starts], sums / counts, counts
