"""Applications (experimental units) in the lab experiments.

In the lab, the *unit* of the A/B test is an application: a bulk-transfer
sender that opens one or more parallel TCP connections using a particular
congestion control algorithm, with or without pacing.  The three lab
experiments of Section 3 correspond to three treatments:

* **Multiple connections** — treatment uses two Reno connections, control
  uses one.
* **Pacing** — treatment paces its (single) Reno connection, control does
  not.
* **Congestion control** — treatment uses BBR, control uses Cubic (or vice
  versa).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Application", "CC_ALGORITHMS"]

#: Congestion control algorithms supported by the fluid model.
CC_ALGORITHMS: tuple[str, ...] = ("reno", "cubic", "bbr")


@dataclass(frozen=True)
class Application:
    """One experimental unit: an application sending bulk data.

    Parameters
    ----------
    app_id:
        Identifier of the application within an experiment.
    cc:
        Congestion control algorithm: ``"reno"``, ``"cubic"`` or ``"bbr"``.
    connections:
        Number of parallel TCP connections the application opens.
    paced:
        Whether the application's connections pace their packets.
    treated:
        Whether the application is in the treatment group when it runs
        through :func:`~repro.netsim.fluid.lab.run_lab_experiment`.  The
        flag does not change behaviour by itself, and a lab sweep ignores
        it: arm ``k`` treats its first ``k`` units, built with the
        treatment configuration.
    """

    app_id: int
    cc: str = "reno"
    connections: int = 1
    paced: bool = False
    treated: bool = False

    def __post_init__(self) -> None:
        if self.cc not in CC_ALGORITHMS:
            raise ValueError(
                f"unknown congestion control {self.cc!r}; expected one of {CC_ALGORITHMS}"
            )
        if self.connections < 1:
            raise ValueError("an application needs at least one connection")

    @property
    def is_loss_based(self) -> bool:
        """True for loss-based congestion control (Reno, Cubic)."""
        return self.cc in ("reno", "cubic")
