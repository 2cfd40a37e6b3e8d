"""The figure registry: every ``repro`` figure, declared once.

Each figure of the paper, and of this reproduction's extensions, is one
:class:`Figure` record in the ``FIGURES`` tuple of the experiment module
that computes it.  The record holds everything the layers above need to
know about the figure: its help line and ``repro list`` group, the knob
it consumes, whether it consumes the seed, how one replication reduces to
scalar cells and what ``repro <name>`` prints.  The CLI, ``repro sweep``,
campaigns and :mod:`repro.api` all read :func:`figures`, which imports
the modules of :data:`FIGURE_MODULES` on first use.

This module also holds the two functions every figure shares:
:func:`figure_spec`, the one constructor of content-keyed ``figure.cells``
arms, and the ``figure.cells`` runner task itself.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.runner.spec import ScenarioSpec, register_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.executor import ParallelExecutor

__all__ = [
    "KNOBS",
    "FIGURE_MODULES",
    "Figure",
    "figures",
    "get_figure",
    "parse_knob",
    "figure_spec",
    "figure_cells",
]

#: The knobs a figure can consume, each figure exactly one.  Their
#: defaults are the ``figure.cells`` task defaults.
KNOBS: tuple[str, ...] = ("quick", "noise")

#: The modules of :mod:`repro.experiments` that define figures, in the
#: order ``repro list`` shows them.  Each holds a ``FIGURES`` tuple.
FIGURE_MODULES: tuple[str, ...] = (
    "lab_connections",
    "lab_pacing",
    "lab_cc",
    "paired_link",
    "lab_topology",
    "lab_parking_lot",
    "lab_churn",
    "lab_l4s",
    "lab_fleet",
)


@dataclass(frozen=True)
class Figure:
    """One figure and every rule the layers above apply to it.

    Attributes
    ----------
    name:
        Registry name, ``repro`` subcommand and ``figure.cells`` param.
    help:
        One-line help shown by ``repro --help``.
    group:
        The ``repro list`` group the figure is listed under.
    knob:
        The one knob of :data:`KNOBS` the figure consumes: ``noise`` for
        the fluid lab figures, ``quick`` for the rest.  The other knob is
        inert, so it never enters the figure's content keys.
    seeded:
        Whether the figure consumes the seed.  An unseeded figure is a
        pure function of its knob, so its replications collapse to one
        seed-free arm.
    cells:
        Reduces one replication to flat ``{cell: value}`` scalars; called
        as ``cells(<knob>=value, seed=seed)``, ``seed`` only if seeded.
    render:
        Runs the figure for ``repro <name>`` and returns the lines it
        prints; called as ``render(args, parser, executor)`` with the
        parsed flags, the subcommand parser (for usage errors) and the
        command's one :class:`~repro.runner.executor.ParallelExecutor`,
        which the CLI builds from ``--jobs``, ``--cache`` and, where the
        subcommand has them, ``--trace`` and ``--profile``.
    add_arguments:
        Optional hook adding the figure's own flags to its subcommand.
    """

    name: str
    help: str
    group: str
    knob: str
    seeded: bool
    cells: Callable[..., dict[str, float]]
    render: Callable[[argparse.Namespace, argparse.ArgumentParser, ParallelExecutor], Sequence[str]]
    add_arguments: Callable[[argparse.ArgumentParser], object] | None = None

    def __post_init__(self) -> None:
        """Reject a knob ``figure.cells`` does not take."""
        if self.knob not in KNOBS:
            raise ValueError(f"figure {self.name!r}: knob {self.knob!r} is not one of {KNOBS}")

    def check_knobs(self, knobs: Iterable[str]) -> None:
        """Raise ``ValueError`` naming the allowed knob if any is inapplicable."""
        extra = sorted(set(knobs) - {self.knob})
        if extra:
            raise ValueError(
                f"knob(s) {extra} do not apply to figure {self.name!r} "
                f"(allowed: {[self.knob]})"
            )


@functools.cache
def figures() -> Mapping[str, Figure]:
    """Every figure, by name, in :data:`FIGURE_MODULES` order (read-only).

    Imports the figure modules on the first call.  Raises ``ValueError``
    if two figures share a name.
    """
    found: dict[str, Figure] = {}
    for module in FIGURE_MODULES:
        for figure in importlib.import_module(f"repro.experiments.{module}").FIGURES:
            if figure.name in found:
                raise ValueError(f"figure {figure.name!r} is defined twice")
            found[figure.name] = figure
    return MappingProxyType(found)


def get_figure(name: str) -> Figure:
    """The figure called ``name`` (``KeyError`` if unknown)."""
    try:
        return figures()[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; choose one of {list(figures())}") from None


def parse_knob(knob: str, value: Any) -> Any:
    """Validate a knob value read from outside the program; return it normalised.

    ``quick`` must be a bool and ``noise`` a finite, non-negative number;
    raises ``ValueError`` otherwise.
    """
    if knob == "quick":
        if not isinstance(value, bool):
            raise ValueError(f"expected a bool, got {value!r}")
        return value
    if knob == "noise":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        if not 0 <= value < math.inf:
            raise ValueError(f"noise must be finite and >= 0, got {value!r}")
        return float(value)
    raise ValueError(f"unknown knob {knob!r}")


def figure_spec(
    figure: str,
    seed: int | None = 0,
    label: str | None = None,
    **knobs: Any,
) -> ScenarioSpec:
    """A content-keyed ``figure.cells`` arm: one replication of ``figure``.

    Applies the inert-knob rule so equal computations share a content
    key: the spec carries only the figure's own knob (at the task
    default when not given, so a knob spelled at its default keys like
    one never passed), and an unseeded figure's seed is normalised to
    ``None`` so replications cannot split the cache.  An inapplicable
    knob raises ``ValueError`` naming the allowed one, and so does a
    negative seed (numpy's generators take none).
    """
    entry = get_figure(figure)
    entry.check_knobs(knobs)
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    params: dict[str, object] = {"figure": figure}
    if entry.knob == "noise":
        params["noise"] = float(knobs.get("noise", 0.0))
    else:
        params["quick"] = bool(knobs.get("quick", False))
    arm_seed = None if not entry.seeded or seed is None else int(seed)
    if label is None:
        label = f"{figure}[seed={arm_seed}]" if entry.seeded else f"{figure}[deterministic]"
    return ScenarioSpec(task="figure.cells", params=params, seed=arm_seed, label=label)


@register_task("figure.cells")
def figure_cells(
    figure: str,
    quick: bool = False,
    noise: float = 0.0,
    seed: int | None = 0,
) -> dict[str, float]:
    """One replication of a figure, reduced to its scalar cells.

    Returns a flat ``{cell name: value}`` mapping so ``repro sweep`` and
    campaigns can aggregate means and confidence intervals across seeds.
    The figure receives only its own knob, and the seed only if it is
    seeded.
    """
    entry = get_figure(figure)
    kwargs: dict[str, Any] = {entry.knob: quick if entry.knob == "quick" else noise}
    if entry.seeded:
        kwargs["seed"] = seed
    return entry.cells(**kwargs)
