"""Causal packet lineage (repro.obs.lineage) and flow telemetry.

Covers the observability-PR checklist: the zero-overhead unobserved
default (no lineage allocations at all), byte-for-byte equality of
lineage-derived breakdowns with the SpanTracer-derived Tables 2/3,
write -> segment -> delivery chain completeness through mbuf clusters,
chaos outcome annotation, and per-connection flow samples.
"""

import json

import pytest

from repro.core.breakdown import (
    RX_SPANS,
    TX_SPANS,
    breakdown_from_lineage,
)
from repro.core.experiment import run_round_trip
from repro.obs import Observer
from repro.obs.lineage import allocation_count


def traced_run(size, iterations=3, warmup=1, **kw):
    obs = Observer(lineage=True, flow=True)
    result = run_round_trip(size=size, iterations=iterations,
                            warmup=warmup, observer=obs, **kw)
    return obs, result


# ----------------------------------------------------------------------
# Zero-overhead audit (satellite 1)
# ----------------------------------------------------------------------
class TestZeroOverheadUnobserved:
    def test_unobserved_run_allocates_no_lineage_objects(self):
        run_round_trip(size=200, iterations=2, warmup=1)  # prime caches
        before = allocation_count()
        run_round_trip(size=8000, iterations=3, warmup=1)
        run_round_trip(size=1400, iterations=2, warmup=1,
                       network="ethernet")
        assert allocation_count() == before

    def test_plain_observer_allocates_no_lineage_objects(self):
        before = allocation_count()
        run_round_trip(size=1400, iterations=2, warmup=1,
                       observer=Observer())
        assert allocation_count() == before

    def test_lineage_run_timing_byte_identical(self):
        plain = run_round_trip(size=1400, iterations=4, warmup=1)
        obs, traced = traced_run(1400, iterations=4, warmup=1)
        assert traced.rtt_us == plain.rtt_us
        assert traced.client_spans == plain.client_spans
        assert traced.server_spans == plain.server_spans
        assert allocation_count() > 0  # the traced run did record

    def test_packet_log_identical_with_and_without_lineage(self):
        a = Observer()
        run_round_trip(size=1400, iterations=3, warmup=1, observer=a)
        b = Observer(lineage=True)
        run_round_trip(size=1400, iterations=3, warmup=1, observer=b)
        assert a.packet_log.format() == b.packet_log.format()
        # Only the lineage correlation ids differ (0 when untraced).
        assert all(e.lineage_id == 0 for e in a.packet_log.events)
        assert any(e.lineage_id > 0 for e in b.packet_log.events)


# ----------------------------------------------------------------------
# Byte-for-byte breakdown equality (tentpole acceptance)
# ----------------------------------------------------------------------
class TestBreakdownFromLineage:
    @pytest.mark.parametrize("size", [1400, 8000])
    def test_equals_span_derived_tables(self, size):
        obs, result = traced_run(size, iterations=8, warmup=2)
        tx, rx = breakdown_from_lineage(obs.lineage, size, 8)
        for row, span in TX_SPANS.items():
            assert tx.row(row) == result.span_per_transfer("client",
                                                           span)
        for row, span in RX_SPANS.items():
            assert rx.row(row) == result.span_per_transfer("server",
                                                           span)

    @pytest.mark.parametrize("loss", [0.0, 0.1], ids=["clean", "loss10"])
    @pytest.mark.parametrize("network", ["atm", "ethernet"])
    def test_aggregate_matches_tracer_totals_exactly(self, network, loss):
        from repro.chaos import ImpairmentConfig, Impairments

        impairments = (Impairments(ImpairmentConfig(seed=7, p_drop=loss))
                       if loss else None)
        # 20 round trips: long enough for this seed to drop segments.
        obs, result = traced_run(1400, iterations=20, warmup=2,
                                 network=network, impairments=impairments)
        if impairments is not None:
            assert impairments.stats.drops > 0
        # Both hosts, both directions: no tracer span is missing from
        # the lineage aggregate and no name is lineage-only.
        assert obs.lineage.aggregate(host="client") == result.client_spans
        assert obs.lineage.aggregate(host="server") == result.server_spans


# ----------------------------------------------------------------------
# Chain completeness: write -> segment -> delivery
# ----------------------------------------------------------------------
class TestCausalChain:
    def test_writes_segments_deliveries_link_up(self):
        obs, _ = traced_run(1400, iterations=3, warmup=1)
        rec = obs.lineage
        client_writes = [w for w in rec.measured_writes()
                         if w.host == "client"]
        assert len(client_writes) == 3
        data_segs = [s for s in rec.measured_segments()
                     if s.kind == "data" and s.tx_host == "client"]
        assert len(data_segs) == 3
        for write, seg in zip(client_writes, data_segs):
            assert seg.write_ids == [write.write_id]
            assert seg.rx_host == "server"
            assert seg.outcome == "delivered"
            names = [ev.name for ev in seg.events]
            for expected in ("tx.tcp.segment", "tx.tcp.mcopy",
                             "tx.tcp.checksum", "tx.ip", "tx.atm",
                             "wire.atm", "rx.atm", "rx.ipq", "rx.ip",
                             "rx.tcp.checksum"):
                assert expected in names, (expected, names)
        server_deliveries = [d for d in rec.measured_deliveries()
                             if d.host == "server"]
        assert len(server_deliveries) == 3
        for seg, delivery in zip(data_segs, server_deliveries):
            assert seg.segment_id in delivery.segment_ids
            # The user copy closing the chain lives on the delivery.
            assert [ev.name for ev in delivery.events] == ["rx.user"]

    def test_multi_segment_write_through_clusters(self):
        # An 8000-byte write rides cluster mbufs and is cut into more
        # than one segment; every segment must carry the same write id
        # and the far-side delivery must name all of them.
        obs, _ = traced_run(8000, iterations=2, warmup=1)
        rec = obs.lineage
        write = next(w for w in rec.measured_writes()
                     if w.host == "client")
        segs = [s for s in rec.measured_segments()
                if s.kind == "data" and s.tx_host == "client"
                and write.write_id in s.write_ids]
        assert len(segs) >= 2
        assert sum(s.length for s in segs) == 8000
        delivered_ids = set()
        for d in rec.measured_deliveries():
            if d.host == "server":
                delivered_ids.update(d.segment_ids)
        assert {s.segment_id for s in segs} <= delivered_ids

    def test_acks_and_control_segments_are_traced_too(self):
        # At 1400 bytes every ACK piggybacks on echo data, so the pure
        # ACKs and SYNs live in the handshake (pre-mark, still in the
        # full segment list).
        obs, _ = traced_run(1400, iterations=3, warmup=1)
        kinds = {s.kind for s in obs.lineage.segments}
        assert kinds == {"data", "ack", "ctl"}
        acks = [s for s in obs.lineage.segments if s.kind == "ack"]
        assert any("wire.ack.atm" in [ev.name for ev in s.events]
                   for s in acks)


# ----------------------------------------------------------------------
# Chaos annotation
# ----------------------------------------------------------------------
class TestChaosLineage:
    def test_dropped_segment_annotated_with_cause(self):
        from repro.chaos import ImpairmentConfig, Impairments

        imp = Impairments(ImpairmentConfig(seed=1994, p_drop=0.15))
        obs, _ = traced_run(1400, iterations=4, warmup=1,
                            impairments=imp)
        assert imp.stats.drops > 0
        dropped = [s for s in obs.lineage.segments
                   if s.outcome == "dropped:chaos-drop"]
        assert len(dropped) == imp.stats.drops
        for seg in dropped:
            assert "chaos.drop" in seg.chaos
        # TCP recovered: a retransmission of the lost bytes got through.
        rexmt = [s for s in obs.lineage.segments if s.retransmit]
        assert rexmt
        assert any(s.outcome == "delivered" for s in rexmt)


# ----------------------------------------------------------------------
# Flow telemetry
# ----------------------------------------------------------------------
class TestFlowTelemetry:
    def test_samples_cover_connection_lifecycle(self):
        obs, _ = traced_run(1400, iterations=3, warmup=1)
        reasons = {s.reason for s in obs.flow.samples}
        assert "established" in reasons
        assert "ack" in reasons
        assert "rtt-sample" in reasons
        client = [s for s in obs.flow.samples if s.host == "client"]
        assert client
        port = client[0].local_port
        assert obs.flow.for_connection("client", port) == client

    def test_cwnd_opens_with_acks(self):
        obs, _ = traced_run(8000, iterations=4, warmup=1)
        samples = [s for s in obs.flow.samples
                   if s.host == "client" and s.reason == "ack"]
        assert samples
        assert samples[-1].snd_cwnd >= samples[0].snd_cwnd

    def test_jsonl_lines_parse_and_are_sorted(self, tmp_path):
        obs, _ = traced_run(1400, iterations=2, warmup=1)
        path = tmp_path / "flow.jsonl"
        n = obs.flow.write_jsonl(str(path), measured_only=False)
        lines = path.read_text().splitlines()
        assert len(lines) == n == len(obs.flow.samples)
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert record["host"] in ("client", "server")

    def test_retransmit_state_sampled_under_loss(self):
        from repro.chaos import ImpairmentConfig, Impairments

        imp = Impairments(ImpairmentConfig(seed=1994, p_drop=0.15))
        obs, _ = traced_run(1400, iterations=4, warmup=1,
                            impairments=imp)
        rexmt = [s for s in obs.flow.samples if s.reason == "rexmt"]
        assert rexmt
        assert any(s.retransmits > 0 or s.rtx_shift >= 0
                   for s in rexmt)
