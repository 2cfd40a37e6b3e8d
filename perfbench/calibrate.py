"""Phase timing that copes with a machine whose speed jumps.

On the shared two-vCPU machine this benchmark was defined on, the speed
of the same pure-Python loop switches between states up to 2x apart,
sometimes within seconds and sometimes for minutes: far more than any
change the benchmark should detect.  :class:`PhaseClock` therefore
times each phase of a pass between two runs of :func:`kernel`, a fixed
pure-Python event loop (a heap of events, float arithmetic, attribute
updates: the interpreter work the simulators do) that depends on
nothing in ``repro``.  The kernel runs the way the phase does: in this
process for a phase that runs in this process, and at once in as many
fresh worker processes as the phase uses otherwise, so that it sees
the same slowdown a busy second vCPU sees.

A phase's wall time divided by the mean of the kernel's times just
before and just after it depends on the code under test, not on the
machine's state.  :func:`phase_seconds` takes, per phase, the median of
that ratio over a run's passes and multiplies it by
:data:`REFERENCE_S`: the result reads as seconds on a machine where the
kernel takes that long.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

__all__ = [
    "KERNEL_EVENTS",
    "REFERENCE_S",
    "PhaseClock",
    "kernel",
    "kernel_seconds",
    "phase_seconds",
]

#: Events per calibration kernel.
KERNEL_EVENTS = 40_000
#: Kernel time the scaled figures refer to: about the kernel's time in
#: the faster state of the machine the benchmark was defined on.
REFERENCE_S = 0.02


class _Flow:
    __slots__ = ("acked", "cwnd")

    def __init__(self) -> None:
        self.acked = 0
        self.cwnd = 10.0


def kernel() -> float:
    """Seconds taken by a fixed discrete-event loop of :data:`KERNEL_EVENTS` events."""
    start = time.perf_counter()
    flows = [_Flow() for _ in range(16)]
    heap = [(i * 1e-3, i, i % 16) for i in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(KERNEL_EVENTS):
        now, _, index = heapq.heappop(heap)
        flow = flows[index]
        flow.acked += 1
        flow.cwnd += 1.0 / flow.cwnd
        heapq.heappush(heap, (now + 0.02 + (seq % 7) * 1e-4, seq, index))
        seq += 1
    return time.perf_counter() - start


def _warm_kernel(_: int) -> float:
    """The kernel's time in a fresh process, after one run to warm it."""
    kernel()
    return kernel()


def kernel_seconds(workers: int = 1) -> float:
    """The kernel's time, run in this process or at once in ``workers`` new ones."""
    if workers == 1:
        return kernel()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return statistics.mean(pool.map(_warm_kernel, range(workers)))


class PhaseClock:
    """Wall time of named phases, each between two kernel runs.

    ``workers`` is the number of worker processes the phases run in;
    ``1`` means they run in this process.  A phase may override it.  The
    kernel run after a phase serves as the one before the next phase if
    that runs on as many workers.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self.walls: dict[str, float] = {}
        self.kernels: dict[str, float] = {}
        self._last: tuple[int, float] | None = None

    @contextmanager
    def phase(self, name: str, workers: int | None = None) -> Iterator[None]:
        workers = workers or self.workers
        if self._last is not None and self._last[0] == workers:
            before = self._last[1]
        else:
            before = kernel_seconds(workers)
        start = time.perf_counter()
        yield
        self.walls[name] = time.perf_counter() - start
        self._last = (workers, kernel_seconds(workers))
        self.kernels[name] = (before + self._last[1]) / 2


def phase_seconds(clocks: Sequence[PhaseClock]) -> float:
    """Seconds one pass takes, from the clocks of a run's repeated passes."""
    return REFERENCE_S * sum(
        statistics.median(c.walls[name] / c.kernels[name] for c in clocks)
        for name in clocks[0].walls
    )
