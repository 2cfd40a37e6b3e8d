"""Unit tests for the in-simulation probe layer."""

import pytest

from repro.obs.probe import Probe, ProbeConfig, ProbeLog, ProbeRecord, TraceRecorder


class TestProbeConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval_s"):
            ProbeConfig(interval_s=0.0)
        with pytest.raises(ValueError, match="interval_s"):
            ProbeConfig(interval_s=-1.0)

    def test_rejects_zero_max_samples(self):
        with pytest.raises(ValueError, match="max_samples"):
            ProbeConfig(interval_s=1.0, max_samples=0)

    def test_defaults(self):
        config = ProbeConfig(interval_s=0.5)
        assert config.include_queues and config.include_flows
        assert config.max_samples == 100_000


class TestSampleTimes:
    def test_multiples_of_interval_up_to_duration(self):
        probe = Probe(ProbeConfig(interval_s=0.5))
        assert probe.sample_times(2.0) == [0.5, 1.0, 1.5, 2.0]

    def test_no_float_drift(self):
        # 0.1 is not representable; k * 0.1 must still yield exactly the
        # duration/interval count (accumulation would drop or add a tick).
        probe = Probe(ProbeConfig(interval_s=0.1))
        times = probe.sample_times(30.0)
        assert len(times) == 300
        assert times[-1] == pytest.approx(30.0)

    def test_duration_shorter_than_interval_yields_nothing(self):
        assert Probe(ProbeConfig(interval_s=5.0)).sample_times(2.0) == []

    def test_max_samples_caps_and_flags_truncation(self):
        probe = Probe(ProbeConfig(interval_s=0.5, max_samples=3))
        assert probe.sample_times(10.0) == [0.5, 1.0, 1.5]
        assert probe.log().truncated is True

    def test_untruncated_log_not_flagged(self):
        probe = Probe(ProbeConfig(interval_s=1.0))
        probe.sample_times(3.0)
        assert probe.log().truncated is False


class TestProbeSampling:
    def _sampled(self):
        probe = Probe(ProbeConfig(interval_s=1.0))
        for t in (1.0, 2.0):
            probe.sample(
                t,
                queues={"b": {"occupancy_packets": t}, "a": {"occupancy_packets": 0.0}},
                flows={2: {"cwnd": 10.0 * t}, 1: {"cwnd": 4.0}},
            )
        return probe.log()

    def test_records_sorted_queues_then_flows_per_instant(self):
        log = self._sampled()
        first_instant = [(r.kind, r.name) for r in log.records if r.t == 1.0]
        assert first_instant == [
            ("queue", "a"),
            ("queue", "b"),
            ("flow", "conn1"),
            ("flow", "conn2"),
        ]

    def test_log_helpers(self):
        log = self._sampled()
        assert log.sample_times == (1.0, 2.0)
        assert log.names("queue") == ("a", "b")
        assert log.names("flow") == ("conn1", "conn2")
        assert log.series("queue", "b", "occupancy_packets") == [(1.0, 1.0), (2.0, 2.0)]
        assert log.series("flow", "conn2", "cwnd") == [(1.0, 10.0), (2.0, 20.0)]
        assert log.series("flow", "conn2", "missing") == []

    def test_include_flags_filter_kinds(self):
        probe = Probe(ProbeConfig(interval_s=1.0, include_flows=False))
        probe.sample(1.0, queues={"q": {"x": 1.0}}, flows={0: {"cwnd": 1.0}})
        assert [r.kind for r in probe.log().records] == ["queue"]

        probe = Probe(ProbeConfig(interval_s=1.0, include_queues=False))
        probe.sample(1.0, queues={"q": {"x": 1.0}}, flows={0: {"cwnd": 1.0}})
        assert [r.kind for r in probe.log().records] == ["flow"]

    def test_snapshot_copied_not_aliased(self):
        probe = Probe(ProbeConfig(interval_s=1.0))
        fields = {"x": 1.0}
        probe.sample(1.0, queues={"q": fields}, flows={})
        fields["x"] = 99.0
        assert probe.log().records[0].fields["x"] == 1.0


class TestTraceRecorder:
    def test_cap_drops_and_flags(self):
        recorder = TraceRecorder(max_records=2)
        for t in (1.0, 2.0, 3.0):
            recorder.record(t, "queue", "q", {"x": t})
        assert len(recorder.records) == 2
        assert recorder.truncated is True

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError, match="max_records"):
            TraceRecorder(max_records=0)


class TestProbeLogDefaults:
    def test_empty_log(self):
        log = ProbeLog(config=ProbeConfig(interval_s=1.0))
        assert log.records == ()
        assert log.sample_times == ()
        assert log.names("queue") == ()

    def test_record_fields_are_plain(self):
        record = ProbeRecord(t=1.0, kind="queue", name="q", fields={"x": 2.0})
        assert record.fields["x"] == 2.0
