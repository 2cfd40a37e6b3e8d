"""Property tests: the calendar scheduler is order-identical to the heap.

Every network runs the heap; :class:`CalendarScheduler` remains only
for the benchmark harness, which patches it.  These tests drive both
schedulers through identical scripts — ties (scheduling order wins),
cancellation, re-arming from inside callbacks, events beyond the
calendar's ring horizon, plus a seeded fuzz — and require identical
traces, so the class stays correct for as long as it exists.
"""

import random

import pytest

from repro.netsim.packet.engine import CalendarScheduler, EventScheduler


def both():
    """A fresh (heap, calendar) pair with a deliberately awkward geometry:
    a coarse 0.25 s bucket so many distinct times share a bucket, and a
    tiny ring so modest horizons wrap into later years."""
    return EventScheduler(), CalendarScheduler(bucket_s=0.25, buckets=8)


class TestOrderParity:
    def run_script(self, script):
        """Apply ``script(sched, trace)`` to both schedulers, return traces."""
        traces = []
        for sched in both():
            trace = []
            script(sched, trace)
            traces.append(trace)
        assert traces[0] == traces[1]
        return traces[0]

    def test_ties_fire_in_scheduling_order(self):
        def script(sched, trace):
            for tag in range(6):
                sched.schedule(1.0, lambda tag=tag: trace.append(tag))
            sched.run(until=2.0)

        assert self.run_script(script) == [0, 1, 2, 3, 4, 5]

    def test_interleaved_times_and_ties(self):
        def script(sched, trace):
            for tag, t in enumerate([3.0, 1.0, 2.0, 1.0, 3.0, 0.5]):
                sched.schedule(t, lambda tag=tag, t=t: trace.append((t, tag)))
            sched.run(until=10.0)

        assert self.run_script(script) == [
            (0.5, 5), (1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0), (3.0, 4)
        ]

    def test_cancellation(self):
        def script(sched, trace):
            ids = [
                sched.schedule(t, lambda t=t: trace.append(t))
                for t in [1.0, 1.0, 2.0, 3.0]
            ]
            sched.cancel(ids[0])
            sched.cancel(ids[2])
            sched.cancel(ids[2])  # idempotent
            sched.cancel(999)  # unknown: no-op
            sched.run(until=10.0)
            trace.append(("len", len(sched)))

        assert self.run_script(script) == [1.0, 3.0, ("len", 0)]

    def test_rearm_from_inside_callbacks(self):
        def script(sched, trace):
            def chain(n):
                trace.append((round(sched.now, 6), n))
                if n < 5:
                    sched.schedule_in(0.3, lambda: chain(n + 1))

            sched.schedule(0.1, lambda: chain(0))
            # A decoy that each chain step cancels-and-replaces.
            decoy = [sched.schedule(9.0, lambda: trace.append("decoy"))]

            def swap():
                sched.cancel(decoy[0])
                decoy[0] = sched.schedule(9.0, lambda: trace.append("decoy"))

            for k in range(4):
                sched.schedule(0.2 + 0.3 * k, swap)
            sched.run(until=20.0)

        trace = self.run_script(script)
        assert trace[-1] == "decoy"
        assert [n for item in trace if isinstance(item, tuple) for n in [item[1]]] == [
            0, 1, 2, 3, 4, 5
        ]

    def test_far_future_events_beyond_ring_horizon(self):
        # The awkward geometry gives a 2 s year; events dozens of years
        # out must still fire, in order.
        def script(sched, trace):
            for tag, t in enumerate([100.0, 3.0, 55.5, 0.1, 55.5]):
                sched.schedule(t, lambda tag=tag: trace.append(tag))
            sched.run(until=1000.0)

        assert self.run_script(script) == [3, 1, 2, 4, 0]

    def test_run_until_boundary_is_inclusive_and_resumable(self):
        def script(sched, trace):
            sched.schedule(1.0, lambda: trace.append("at"))
            sched.schedule(1.0 + 1e-9, lambda: trace.append("after"))
            sched.run(until=1.0)
            trace.append(("now", sched.now, "len", len(sched)))
            sched.run(until=2.0)

        assert self.run_script(script) == [
            "at", ("now", 1.0, "len", 1), "after"
        ]

    def test_fuzzed_scripts(self):
        # Random schedule/cancel/run interleavings: both schedulers must
        # produce identical (time, tag) traces and identical clocks.
        for seed in range(30):
            rng_script = []
            rng = random.Random(seed)
            horizon = 0.0
            for _ in range(rng.randint(20, 120)):
                op = rng.random()
                if op < 0.6:
                    rng_script.append(("schedule", rng.uniform(0.0, 10.0)))
                elif op < 0.8:
                    rng_script.append(("cancel", rng.randint(0, 200)))
                else:
                    horizon += rng.uniform(0.0, 1.0)
                    rng_script.append(("run", horizon))
            rng_script.append(("run", 20.0))

            traces = []
            for sched in both():
                trace = []
                ids = []
                for step in rng_script:
                    if step[0] == "schedule":
                        t = max(step[1], sched.now)
                        tag = len(ids)
                        ids.append(
                            sched.schedule(t, lambda t=t, tag=tag: trace.append((t, tag)))
                        )
                    elif step[0] == "cancel":
                        if ids:
                            sched.cancel(ids[step[1] % len(ids)])
                    else:
                        sched.run(until=step[1])
                trace.append(("final", sched.now, len(sched)))
                traces.append(trace)
            assert traces[0] == traces[1], f"trace divergence for fuzz seed {seed}"


class TestCalendarScheduler:
    """Calendar-specific behaviour the shared parity tests don't cover."""

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            CalendarScheduler(bucket_s=0.0)
        with pytest.raises(ValueError):
            CalendarScheduler(bucket_s=1.0, buckets=1)

    def test_schedule_in_past_raises(self):
        sched = CalendarScheduler(bucket_s=0.5)
        sched.schedule(1.0, lambda: None)
        sched.run(until=2.0)
        with pytest.raises(ValueError):
            sched.schedule(1.5, lambda: None)

    def test_cancelled_events_do_not_accumulate(self):
        sched = CalendarScheduler(bucket_s=0.5, buckets=16)
        for _ in range(1000):
            sched.cancel(sched.schedule(1e6, lambda: None))
        assert len(sched) == 0
        assert len(sched._cancelled) <= 2 * CalendarScheduler._COMPACT_THRESHOLD
        total = sum(len(b) for b in sched._buckets)
        assert total <= 2 * CalendarScheduler._COMPACT_THRESHOLD

    def test_events_processed_counts_callbacks(self):
        sched = CalendarScheduler(bucket_s=0.5)
        cancelled = sched.schedule(1.0, lambda: None)
        sched.cancel(cancelled)
        for t in (0.5, 1.5, 2.5):
            sched.schedule(t, lambda: None)
        sched.run(until=2.0)
        assert sched.events_processed == 2  # the 2.5 s event is still pending
        assert sched.step()
        assert sched.events_processed == 3
