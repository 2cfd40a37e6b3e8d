"""Randomized assignment of time intervals for switchback designs.

Switchback experiments randomize time intervals rather than units
(:func:`interval_assignment`), then apply a within-interval allocation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interval_assignment"]


def interval_assignment(
    n_intervals: int,
    treatment_probability: float = 0.5,
    seed: int | None = None,
) -> np.ndarray:
    """Randomize time intervals to treatment or control (switchback design).

    Each interval is independently assigned to be a *treatment interval*
    (where almost all traffic runs the new algorithm) or a *control
    interval*.  Section 5.2 of the paper recommends this for targeted
    switchback experiments.  The draw is repeated until at least one
    interval is in each arm, mirroring the paper's requirement that "at
    least one day was in treatment and at least one day was in control".

    Parameters
    ----------
    n_intervals:
        Number of time intervals (e.g. days); at least two.
    treatment_probability:
        Probability that a given interval is a treatment interval, strictly
        between 0 and 1.
    seed:
        Optional randomization seed.

    Returns
    -------
    numpy.ndarray
        Boolean array of length ``n_intervals``; True marks treatment
        intervals.
    """
    if n_intervals < 2:
        raise ValueError("interval_assignment needs at least two intervals")
    if not 0.0 < treatment_probability < 1.0:
        raise ValueError("treatment_probability must be strictly in (0, 1)")
    rng = np.random.default_rng(seed)
    while True:
        assignment = rng.random(n_intervals) < treatment_probability
        if assignment.any() and not assignment.all():
            return assignment
