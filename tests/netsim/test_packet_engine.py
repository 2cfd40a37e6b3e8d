"""Tests for the discrete-event engine and the drop-tail queue."""

import math
import random

import pytest

from repro.netsim.packet.engine import CalendarScheduler, EventScheduler
from repro.netsim.packet.network import Network
from repro.netsim.packet.packets import Packet
from repro.netsim.packet.queue import DropTailQueue
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.packet.sweep import run_packet_sweep
from repro.runner import ParallelExecutor
from repro.runner.spec import ScenarioSpec


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append("late"))
        sched.schedule(1.0, lambda: fired.append("early"))
        sched.run(until=3.0)
        assert fired == ["early", "late"]

    def test_ties_run_in_scheduling_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append("first"))
        sched.schedule(1.0, lambda: fired.append("second"))
        sched.run(until=2.0)
        assert fired == ["first", "second"]

    def test_run_until_does_not_execute_later_events(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append("x"))
        sched.run(until=1.0)
        assert fired == []
        assert sched.now == pytest.approx(1.0)

    def test_schedule_in_past_raises(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.run(until=2.0)
        with pytest.raises(ValueError):
            sched.schedule(1.5, lambda: None)

    def test_nan_time_raises_and_leaves_the_heap_runnable(self):
        # ``nan < now`` is False, so a bare past-time check would accept a
        # NaN event, which then sits at the heap head and blocks the rest.
        sched = EventScheduler()
        fired = []
        with pytest.raises(ValueError):
            sched.schedule(float("nan"), lambda: fired.append("nan"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(0.5, lambda: fired.append("b"))
        sched.run(until=2.0)
        assert fired == ["b", "a"]
        assert sched.events_scheduled == sched.events_processed == 2

    def test_infinite_time_is_accepted_and_never_fires(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(math.inf, lambda: fired.append("inf"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.run(until=2.0)
        sched.run(until=1e300)
        assert fired == ["a"]
        assert sched.now == 1e300
        assert (sched.events_scheduled, sched.events_processed) == (2, 1)

    def test_schedule_returns_nothing(self):
        assert EventScheduler().schedule(1.0, lambda: None) is None

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        fired = []

        def chain():
            fired.append(sched.now)
            if len(fired) < 3:
                sched.schedule(sched.now + 1.0, chain)

        sched.schedule(0.0, chain)
        sched.run(until=10.0)
        assert fired == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]

    def test_counters_count_inserted_and_fired_events(self):
        sched = EventScheduler()
        for t in (0.5, 1.5, 2.5):
            sched.schedule(t, lambda: None)
        sched.run(until=2.0)
        assert sched.events_scheduled == 3
        assert sched.events_processed == 2  # the 2.5 s event is still pending

    def test_run_until_boundary_is_inclusive_and_resumable(self):
        # Probe chunking runs the scheduler to each sample instant in
        # turn; an event at exactly ``until`` belongs to that chunk, and
        # one just after it to the next.
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(("at", sched.now)))
        sched.schedule(1.0 + 1e-9, lambda: fired.append(("after", sched.now)))
        sched.run(until=1.0)
        assert fired == [("at", 1.0)]
        assert sched.now == 1.0
        sched.run(until=2.0)
        assert fired == [("at", 1.0), ("after", 1.0 + 1e-9)]
        assert sched.now == 2.0

    @pytest.mark.parametrize("seed", range(30))
    def test_fuzzed_interleavings_fire_in_time_then_insertion_order(self, seed):
        # Random schedule / run(until) interleavings, with callbacks that
        # re-arm themselves: every event fires once, in (time, insertion)
        # order, and none fires after the horizon of the run that popped it.
        rng = random.Random(seed)
        sched = EventScheduler()
        scheduled, fired = [], []
        horizon = [0.0]

        def add(t):
            tag = len(scheduled)
            scheduled.append((t, tag))

            def callback():
                fired.append((sched.now, tag, horizon[0]))
                if rng.random() < 0.2:
                    add(sched.now + rng.choice([0.0, rng.uniform(0.0, 2.0)]))

            sched.schedule(t, callback)

        for _ in range(rng.randint(20, 120)):
            if rng.random() < 0.75:
                add(max(rng.uniform(0.0, 10.0), sched.now))
            else:
                horizon[0] += rng.uniform(0.0, 1.0)
                sched.run(until=horizon[0])
                assert sched.now == horizon[0]
        horizon[0] = 1e9
        sched.run(until=horizon[0])

        assert [(t, tag) for t, tag, _ in fired] == sorted(scheduled)
        assert all(t <= until for t, _, until in fired)
        assert sched.events_processed == sched.events_scheduled == len(scheduled)

    def test_calendar_name_is_a_bare_subclass(self):
        # A bare subclass, not an alias: patching both names in turn
        # must not wrap ``EventScheduler.schedule`` twice.
        assert CalendarScheduler is not EventScheduler
        assert issubclass(CalendarScheduler, EventScheduler)
        assert not [v for v in vars(CalendarScheduler).values() if callable(v)]


class TestOneScheduler:
    """Every network runs the heap, and no caller can ask for another engine.

    An explicit scheduler must fail loudly rather than re-key a spec.
    """

    SHORT = dict(capacity_mbps=10.0, duration_s=1.0, warmup_s=0.5)

    def test_network_builds_the_heap(self):
        network = Network(capacity_mbps=24.0, base_rtt_ms=20.0)
        assert isinstance(network.scheduler, EventScheduler)

    def test_simulate_rejects_a_scheduler(self):
        with pytest.raises(TypeError, match="scheduler"):
            simulate([FlowConfig(0)], scheduler="heap", **self.SHORT)

    def test_sweep_rejects_a_scheduler(self):
        with pytest.raises(TypeError, match="scheduler"):
            run_packet_sweep(
                2,
                treatment_factory=FlowConfig,
                control_factory=FlowConfig,
                allocations=(1,),
                scheduler="calendar",
                **self.SHORT,
            )

    def test_packet_arm_spec_carrying_a_scheduler_fails(self):
        spec = ScenarioSpec(
            task="netsim.packet_arm",
            params={"flows": (FlowConfig(0),), "scheduler": "calendar", **self.SHORT},
        )
        with pytest.raises(TypeError, match="scheduler"):
            ParallelExecutor(jobs=1).run(spec)


def make_packet(flow_id=0, seq=0, size=1000, time=0.0):
    return Packet(flow_id=flow_id, sequence=seq, size_bytes=size, send_time=time)


class TestDropTailQueue:
    def _setup(self, rate_bps=8000.0, buffer_bytes=2000.0):
        sched = EventScheduler()
        departed, dropped = [], []
        queue = DropTailQueue(
            sched,
            rate_bps,
            buffer_bytes,
            on_departure=lambda p, t: departed.append((p.sequence, t)),
            on_drop=lambda p, t: dropped.append((p.sequence, t)),
        )
        return sched, queue, departed, dropped

    def test_single_packet_serialization_time(self):
        sched, queue, departed, _ = self._setup(rate_bps=8000.0)
        queue.enqueue(make_packet(size=1000))  # 1000 B at 8 kb/s -> 1 s
        sched.run(until=10.0)
        assert departed == [(0, pytest.approx(1.0))]

    def test_fifo_order(self):
        sched, queue, departed, _ = self._setup()
        for seq in range(3):
            queue.enqueue(make_packet(seq=seq))
        sched.run(until=10.0)
        assert [seq for seq, _ in departed] == [0, 1, 2]

    def test_drop_when_buffer_full(self):
        sched, queue, departed, dropped = self._setup(buffer_bytes=1500.0)
        # First packet enters service immediately; next one fits the buffer;
        # the third exceeds the 1500-byte buffer and is dropped.
        accepted = [queue.enqueue(make_packet(seq=i)) for i in range(3)]
        assert accepted == [True, True, False]
        sched.run(until=10.0)
        assert [seq for seq, _ in dropped] == [2]
        assert queue.packets_dropped == 1

    def test_queueing_delay_estimate(self):
        # One packet in service (1 s residual at 8 kb/s) plus one waiting
        # (1 s of backlog): an arrival now would wait 2 s.
        sched, queue, _, _ = self._setup(rate_bps=8000.0, buffer_bytes=10000.0)
        queue.enqueue(make_packet(seq=0))
        queue.enqueue(make_packet(seq=1))
        assert queue.occupancy_bytes == 1000.0
        assert queue.queueing_delay() == pytest.approx(2.0)

    def test_queueing_delay_counts_residual_service_time(self):
        sched, queue, _, _ = self._setup(rate_bps=8000.0, buffer_bytes=10000.0)
        queue.enqueue(make_packet(seq=0))  # enters service, finishes at t=1
        assert queue.queueing_delay() == pytest.approx(1.0)
        sched.run(until=0.75)  # advance the clock partway through the transmission
        assert queue.queueing_delay() == pytest.approx(0.25)

    def test_queueing_delay_zero_when_idle(self):
        sched, queue, _, _ = self._setup()
        assert queue.queueing_delay() == 0.0
        queue.enqueue(make_packet(seq=0))
        sched.run(until=10.0)
        assert queue.queueing_delay() == 0.0

    def test_counters(self):
        sched, queue, _, _ = self._setup(buffer_bytes=100000.0)
        for seq in range(5):
            queue.enqueue(make_packet(seq=seq))
        sched.run(until=100.0)
        assert queue.packets_served == 5
        assert queue.bytes_served == 5000.0
        assert queue.max_occupancy_bytes > 0

    def test_work_conserving_after_idle(self):
        sched, queue, departed, _ = self._setup(rate_bps=8000.0)
        queue.enqueue(make_packet(seq=0))
        sched.run(until=5.0)
        queue.enqueue(make_packet(seq=1))
        sched.run(until=10.0)
        assert departed[1][1] == pytest.approx(6.0)

    def test_invalid_parameters_raise(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            DropTailQueue(sched, 0.0, 100.0, lambda p, t: None, lambda p, t: None)
        with pytest.raises(ValueError):
            DropTailQueue(sched, 100.0, -1.0, lambda p, t: None, lambda p, t: None)
