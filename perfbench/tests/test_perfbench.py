"""The benchmark's own guarantees.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(about two minutes on two cores).

* The simulation digest of a workload repeats across passes and does not
  depend on the worker count, so a speed-only change can show that it
  simulates bit-identical statistics.
* The count metrics of the traced run repeat exactly between two runs.
"""

import pytest

from perfbench.layers import PER_LAYER, tail_percentile
from perfbench.run import Tally, trace_workload
from perfbench.workloads import CampaignCache, FleetQuick, PacketLab

#: A small fleet: same code paths as ``fleet_quick``, a fraction of the work.
SMALL_FLEET = {"units": 400, "edges": 8}

#: Count metrics of the traced run; each must repeat exactly.
COUNTS = [
    name
    for name, unit, _, _ in PER_LAYER
    if unit == "count" or name in ("engine.events_per_segment", "fleet.unique_shard_frac")
]


def test_packet_lab_digest_repeats_and_ignores_jobs():
    workload = PacketLab()
    sweeps = workload.build(seed=3)
    first = workload.run_pass(sweeps)
    again = workload.run_pass(sweeps)
    parallel = workload.run_pass(sweeps, jobs=2)
    assert first.failed == 0, first.problems
    assert first.digest == again.digest == parallel.digest


def test_packet_lab_inputs_are_a_function_of_the_seed():
    workload = PacketLab()
    assert workload.build(seed=1) == workload.build(seed=1)
    assert workload.build(seed=1) != workload.build(seed=2)


def test_fleet_digest_ignores_jobs():
    workload = FleetQuick(**SMALL_FLEET)
    inputs = workload.build(seed=5)
    serial = workload.run_pass(inputs, jobs=1)
    parallel = workload.run_pass(inputs, jobs=2)
    assert serial.digest == parallel.digest
    assert serial.ops == parallel.ops == 5 * SMALL_FLEET["edges"]


def test_campaign_digest_ignores_jobs_and_warm_pass_hits():
    workload = CampaignCache()
    spec = workload.build(seed=2)
    serial = workload.run_pass(spec, jobs=1)
    parallel = workload.run_pass(spec, jobs=2)
    assert serial.failed == 0, serial.problems
    assert parallel.failed == 0, parallel.problems
    assert serial.digest == parallel.digest
    assert serial.details["cache_hit_frac"] == 1.0


@pytest.mark.parametrize(
    "workload",
    [PacketLab(), FleetQuick(**SMALL_FLEET), CampaignCache()],
    ids=["packet_lab", "fleet_small", "campaign_cache"],
)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        tally = Tally()
        values, record = trace_workload(workload, seed=4, import_s=1.0, tally=tally)
        assert tally.failed == 0, tally.problems
        runs.append((values, record["digest"]))
    (first, first_digest), (second, second_digest) = runs
    assert first_digest == second_digest
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    assert set(first) == {name for name, *_ in PER_LAYER}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 13)) == (50.0, 6)
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
