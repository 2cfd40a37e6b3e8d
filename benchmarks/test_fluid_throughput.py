"""Fluid-steps/sec microbenchmark: vectorized kernels vs scalar references.

One "fluid step" is a :func:`weighted_water_fill` over a fleet-sized edge
population plus the loss kernel over the resulting per-edge rates — the
hybrid's hot inner loop (``repro.netsim.fleet.hybrid`` runs two of these
per fleet, region then backbone).  The vectorized path must show a
measured speedup over the scalar reference; both rates land in the
``BENCH_JSON`` throughput section, from which ``check_regression.py``
renders the speedup/slowdown delta table.
"""

import random
import time

import numpy as np

from _helpers import run_once

from repro.netsim.fluid.competition import weighted_water_fill, weighted_water_fill_reference
from repro.netsim.fluid.link import loss_probability

#: Edges in the synthetic fleet the step iterates over.
N_EDGES = 2000

#: Steps timed for the vectorized path.
VECTOR_STEPS = 400

#: Steps timed for the scalar reference (it is orders of magnitude slower).
SCALAR_STEPS = 4


def _fleet_case(seed: int = 0):
    """Deterministic per-edge demands/weights/RTTs for the step benchmark."""
    rng = random.Random(f"fluid-bench:{seed}")
    demands = np.array([rng.uniform(4.0, 64.0) for _ in range(N_EDGES)])
    weights = np.array([float(rng.randint(20, 200)) for _ in range(N_EDGES)])
    rtts = np.array([rng.choice([10.0, 20.0, 40.0, 80.0]) for _ in range(N_EDGES)])
    capacity = 0.6 * float(demands.sum())
    return capacity, demands, weights, rtts


def _steps_per_s(fill, steps: int) -> float:
    """Time ``steps`` fluid steps of the given water-fill implementation."""
    capacity, demands, weights, rtts = _fleet_case()
    start = time.perf_counter()
    for _ in range(steps):
        shares = fill(capacity, demands, weights)
        loss_probability(shares / weights, rtt_ms=rtts, mtu_bytes=1500)
    wall = time.perf_counter() - start
    return steps / wall


def test_fluid_step_vectorized(benchmark, throughput):
    rate = run_once(benchmark, _steps_per_s, weighted_water_fill, VECTOR_STEPS)
    throughput.record_rates(seconds=1.0, steps=rate)


def test_fluid_step_scalar_reference(benchmark, throughput):
    rate = run_once(benchmark, _steps_per_s, weighted_water_fill_reference, SCALAR_STEPS)
    throughput.record_rates(seconds=1.0, steps=rate)


def test_vectorized_speedup_is_at_least_5x():
    """The acceptance bar: the numpy step beats the scalar loop clearly.

    Measured locally at well over 50x for 2000 edges; the 5x floor leaves
    a wide margin for CI jitter.
    """
    scalar = _steps_per_s(weighted_water_fill_reference, SCALAR_STEPS)
    vectorized = _steps_per_s(weighted_water_fill, max(VECTOR_STEPS // 4, 1))
    assert vectorized >= 5.0 * scalar, (
        f"vectorized fluid step only {vectorized / scalar:.1f}x the scalar "
        f"path ({vectorized:,.0f} vs {scalar:,.0f} steps/sec)"
    )
