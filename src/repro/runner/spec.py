"""Declarative scenario specifications and the runner task registry.

A :class:`ScenarioSpec` names a *task* — a registered, importable function
— together with the picklable parameters and seed it should run with.
Specs are the unit of work for :class:`~repro.runner.executor.ParallelExecutor`
and the unit of identity for :class:`~repro.runner.cache.ResultCache`:
:func:`content_key` derives a stable hash from the task name, the
canonicalized parameters, the seed and the package version.

Each task registers with :func:`register_task` on the function it runs,
in the module that defines that function (``netsim.packet_arm`` on
:func:`repro.netsim.packet.simulation.simulate`, ``figure.cells`` in
:mod:`repro.experiments.figures`, ...), so a task is known once its
module is imported, as it is wherever a spec for it is built.
Only ``debug.echo``, used by tests and smoke checks, lives here.  A task
must satisfy two rules so specs can cross process boundaries:

* the task function is defined at module level (the executor sends it
  to worker processes by reference, and unpickling imports its module);
* it accepts a ``seed`` keyword argument (possibly ``None``) and draws
  *all* of its randomness from it, so a spec's result is a pure function
  of the spec.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "ScenarioSpec",
    "register_task",
    "get_task",
    "run_spec",
    "content_key",
    "canonical",
]

#: Registered task functions, keyed by task name.
_TASKS: dict[str, Callable[..., Any]] = {}


def register_task(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a function as a runner task under ``name`` (decorator)."""

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        """Record ``fn`` in the task table and return it unchanged."""
        existing = _TASKS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"task {name!r} is already registered to {existing!r}")
        _TASKS[name] = fn
        return fn

    return decorator


def get_task(name: str) -> Callable[..., Any]:
    """Look up a registered task by name."""
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown runner task {name!r}; import the module that defines it "
            f"(registered tasks: {sorted(_TASKS)})"
        ) from None


@register_task("debug.echo")
def echo(seed: int | None = None, **params: Any) -> dict[str, Any]:
    """Return the spec's own payload; used by tests and smoke checks."""
    return {"seed": seed, **params}


@dataclass(frozen=True)
class ScenarioSpec:
    """One independent simulation arm.

    Attributes
    ----------
    task:
        Name of a registered task function.
    params:
        Keyword arguments for the task.  Everything in here must be
        picklable (to reach worker processes) and canonicalizable (to be
        content-keyed); dataclasses, mappings, sequences, numpy arrays and
        scalars all qualify.
    seed:
        Seed passed to the task as ``seed=``; the task derives all of its
        randomness from it.
    label:
        Human-readable identifier used in logs and error messages.
    """

    task: str
    # Mapping default is deliberate: params are canonicalised (sorted) by
    # content_key, never hashed via __hash__ and never mutated in place;
    # an immutable proxy would not survive pickling to worker processes.
    params: Mapping[str, Any] = field(default_factory=dict)  # repro-lint: disable=KEY001
    seed: int | None = None
    label: str = ""

    def run(self) -> Any:
        """Execute this spec in the current process."""
        return run_spec(self)

    def key(self) -> str:
        """Content key identifying this spec's result."""
        return content_key(self)


def run_spec(spec: ScenarioSpec) -> Any:
    """Execute one spec in the current process and return its result."""
    fn = get_task(spec.task)
    return fn(seed=spec.seed, **dict(spec.params))


def content_key(spec: ScenarioSpec) -> str:
    """Stable hex digest identifying a spec's result.

    The key covers the task name, seed, canonicalized parameters and the
    package version (so cached results do not survive code releases).
    """
    from repro import __version__

    payload = {
        "version": __version__,
        "task": spec.task,
        "seed": spec.seed,
        "params": canonical(spec.params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable form with a stable ordering.

    This is the substrate of every content key in the package: two objects
    with the same canonical form are treated as the same computation.  The
    reduction must therefore be *total* on keyable inputs and *loud* on
    anything else — an object it cannot order deterministically raises
    :class:`TypeError` rather than falling back to a lossy representation
    that could silently collide.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hashlib.sha256(data.tobytes()).hexdigest(),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        # The sort key must never fall back to repr/str: two distinct
        # members stringifying identically would make the ordering depend
        # on insertion order, i.e. equal mappings could key apart.  Any
        # member json.dumps cannot serialize raises TypeError instead.
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        members = [canonical(x) for x in obj]
        members.sort(key=lambda m: json.dumps(m, sort_keys=True))
        return {"__set__": members}
    if not callable(obj) and hasattr(obj, "__dict__"):
        # Plain classes (AllocationPlan, OutcomeTable, ...) are keyed by
        # their instance state.  Callables are rejected: their identity is
        # their code, which instance state cannot capture.
        return {
            "__object__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "state": canonical(vars(obj)),
        }
    raise TypeError(
        f"cannot build a content key for {type(obj).__name__!s}: {obj!r}"
    )
