"""Randomized treatment assignment.

The paper's designs differ only in *how* units are mapped to treatment and
control:

* A naive A/B test assigns each unit independently Bernoulli(p)
  (:func:`bernoulli_assignment`).
* The paired-link experiment runs two simultaneous A/B tests with very
  different allocations (95 % and 5 %) on two separate links.
* Switchback experiments randomize time intervals rather than units
  (:func:`interval_assignment`), then apply a within-interval allocation.
* Gradual deployments apply a deterministic, increasing allocation
  schedule (:func:`fixed_fraction_assignment` per step).

All functions return an :class:`Assignment`, which records the treatment
vector together with the allocation probability so downstream estimators
know which ``tau(p)`` they estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Assignment",
    "bernoulli_assignment",
    "fixed_fraction_assignment",
    "interval_assignment",
]


@dataclass(frozen=True)
class Assignment:
    """The result of randomizing units to treatment or control.

    Attributes
    ----------
    treated:
        Boolean array: ``treated[i]`` is True when unit ``i`` is in the
        treatment group (``A_i = 1`` in the paper's notation).
    allocation:
        The treatment allocation ``p``: the (expected or exact) fraction
        of units assigned to treatment.
    seed:
        Seed used for the randomization, if any, for reproducibility.
    """

    treated: np.ndarray
    allocation: float
    seed: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.treated, dtype=bool)
        object.__setattr__(self, "treated", arr)
        if not 0.0 <= self.allocation <= 1.0:
            raise ValueError(f"allocation must be in [0, 1], got {self.allocation}")

    @property
    def n_units(self) -> int:
        """Total number of units in the assignment."""
        return int(self.treated.shape[0])

    @property
    def n_treated(self) -> int:
        """Number of treated units."""
        return int(self.treated.sum())

    @property
    def n_control(self) -> int:
        """Number of control units."""
        return self.n_units - self.n_treated

    @property
    def realized_allocation(self) -> float:
        """The realized (empirical) fraction of treated units."""
        if self.n_units == 0:
            return 0.0
        return self.n_treated / self.n_units

    def treatment_indices(self) -> np.ndarray:
        """Indices of treated units."""
        return np.flatnonzero(self.treated)

    def control_indices(self) -> np.ndarray:
        """Indices of control units."""
        return np.flatnonzero(~self.treated)

    def inverted(self) -> "Assignment":
        """Return the assignment with treatment and control swapped."""
        return Assignment(~self.treated, 1.0 - self.allocation, self.seed)


def bernoulli_assignment(
    n_units: int, allocation: float, seed: int | None = None
) -> Assignment:
    """Assign each unit to treatment independently with probability ``allocation``.

    This is the assignment mechanism of a classic A/B test (Section 2 of the
    paper): ``A_i ~ Bernoulli(p)`` i.i.d. across units.

    Parameters
    ----------
    n_units:
        Number of units to assign.
    allocation:
        Treatment probability ``p``.
    seed:
        Optional seed for reproducibility.
    """
    if n_units < 0:
        raise ValueError("n_units must be non-negative")
    if not 0.0 <= allocation <= 1.0:
        raise ValueError("allocation must be in [0, 1]")
    rng = np.random.default_rng(seed)
    treated = rng.random(n_units) < allocation
    return Assignment(treated, allocation, seed)


def fixed_fraction_assignment(
    n_units: int, allocation: float, seed: int | None = None
) -> Assignment:
    """Assign exactly ``round(allocation * n_units)`` units to treatment.

    A completely randomized design: the number of treated units is fixed, and
    which units are treated is chosen uniformly at random.  The lab
    experiments of Section 3 use this mechanism (e.g. exactly ``k`` of the
    10 applications use two connections).
    """
    if n_units < 0:
        raise ValueError("n_units must be non-negative")
    if not 0.0 <= allocation <= 1.0:
        raise ValueError("allocation must be in [0, 1]")
    n_treated = int(round(allocation * n_units))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_units)
    treated = np.zeros(n_units, dtype=bool)
    treated[order[:n_treated]] = True
    return Assignment(treated, allocation, seed)


def interval_assignment(
    n_intervals: int,
    treatment_probability: float = 0.5,
    seed: int | None = None,
    force_both_arms: bool = True,
) -> np.ndarray:
    """Randomize time intervals to treatment or control (switchback design).

    Each interval is independently assigned to be a *treatment interval*
    (where almost all traffic runs the new algorithm) or a *control
    interval*.  Section 5.2 of the paper recommends this for targeted
    switchback experiments.

    Parameters
    ----------
    n_intervals:
        Number of time intervals (e.g. days).
    treatment_probability:
        Probability that a given interval is a treatment interval.
    seed:
        Optional randomization seed.
    force_both_arms:
        When True (the default), re-randomize until at least one interval is
        in each arm, mirroring the paper's requirement that "at least one day
        was in treatment and at least one day was in control".  This needs
        ``treatment_probability`` strictly between 0 and 1.

    Returns
    -------
    numpy.ndarray
        Boolean array of length ``n_intervals``; True marks treatment
        intervals.
    """
    if n_intervals <= 0:
        raise ValueError("n_intervals must be positive")
    if not 0.0 <= treatment_probability <= 1.0:
        raise ValueError("treatment_probability must be in [0, 1]")
    if force_both_arms and n_intervals < 2:
        raise ValueError("force_both_arms requires at least two intervals")
    if force_both_arms and treatment_probability in (0.0, 1.0):
        raise ValueError("force_both_arms requires treatment_probability strictly in (0, 1)")
    rng = np.random.default_rng(seed)
    while True:
        assignment = rng.random(n_intervals) < treatment_probability
        if not force_both_arms:
            return assignment
        if assignment.any() and not assignment.all():
            return assignment
