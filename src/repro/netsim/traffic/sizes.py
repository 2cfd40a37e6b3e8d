"""Flow-size samplers for dynamic traffic.

Internet flow sizes are famously heavy-tailed ("mice and elephants"):
most transfers are small, but a small fraction of very large flows carry
most of the bytes.  Each sampler here is a frozen, content-keyable
dataclass drawing sizes (in bytes) from one family:

* :class:`FixedSizes` — every flow the same size (degenerate, useful in
  tests and calibration);
* :class:`ParetoSizes` — the classic heavy-tailed model; with shape
  ``alpha <= 2`` the variance is infinite and elephants dominate.

Samplers draw all randomness from the ``random.Random`` instance they
are handed, so a traffic source's flow sequence is a pure function of
the simulation seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "SizeSampler",
    "FixedSizes",
    "ParetoSizes",
]


class SizeSampler:
    """Base class for flow-size samplers (bytes per transfer)."""

    def sample(self, rng: random.Random) -> float:
        """Draw one flow size in bytes."""
        raise NotImplementedError

    def mean_bytes(self) -> float:
        """Expected flow size in bytes (``inf`` when undefined)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSizes(SizeSampler):
    """Every flow transfers exactly ``size_bytes``."""

    size_bytes: float

    def __post_init__(self) -> None:
        if not 0 <= self.size_bytes < math.inf:
            raise ValueError("size_bytes must be non-negative and finite")

    def sample(self, rng: random.Random) -> float:
        """``size_bytes``, drawing nothing from ``rng``."""
        return float(self.size_bytes)

    def mean_bytes(self) -> float:
        """``size_bytes``."""
        return float(self.size_bytes)


@dataclass(frozen=True)
class ParetoSizes(SizeSampler):
    """Pareto(``alpha``) sizes with minimum ``min_bytes``.

    ``sample = min_bytes / U^(1/alpha)``; the mean is
    ``alpha * min_bytes / (alpha - 1)`` for ``alpha > 1`` and infinite
    otherwise.  The default shape 1.5 gives the heavy tail reported for
    internet flow sizes (finite mean, infinite variance).
    """

    min_bytes: float = 50_000.0
    alpha: float = 1.5

    def __post_init__(self) -> None:
        if not 0 < self.min_bytes < math.inf:
            raise ValueError("min_bytes must be positive and finite")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    def sample(self, rng: random.Random) -> float:
        """One inverse-CDF draw from a single uniform of ``rng``."""
        # Guard against u == 0 (probability ~2**-53, but it would divide by 0).
        u = max(rng.random(), 1e-12)
        return self.min_bytes / u ** (1.0 / self.alpha)

    def mean_bytes(self) -> float:
        """``alpha * min_bytes / (alpha - 1)``, infinite for ``alpha <= 1``."""
        if self.alpha <= 1.0:
            return float("inf")
        return self.alpha * self.min_bytes / (self.alpha - 1.0)
