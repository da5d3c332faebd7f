"""Ablations of design choices the paper discusses but did not measure.

Each ablation isolates one mechanism DESIGN.md calls out:

* PCB lookup structure under heavy connection load (§3's hash-table
  suggestion);
* the socket layer's 1 KB cluster-mbuf switchover (§2.2.1);
* the §4.1.1 partial-checksum extensions (segment prediction and
  multi-chunk sums) on a path whose MSS misaligns with page chunks;
* TX FIFO depth sensitivity of the overlapped ATM transmit;
* delayed ACKs vs ack-every-packet for RPC traffic.
"""

from repro.core.experiment import run_round_trip
from repro.core.report import format_table, pct_change
from repro.hw import decstation_5000_200
from repro.kern.config import ChecksumMode, KernelConfig, PcbLookup
from repro.sim.engine import to_us
from repro.tcp.pcb import PCB, PCBTable


def test_ablation_pcb_structure_under_load():
    """List vs hash demux cost as the connection count grows."""
    def run():
        costs = decstation_5000_200()
        out = {}
        for population in (10, 100, 1000):
            row = {}
            for mode in (PcbLookup.LIST, PcbLookup.HASH):
                table = PCBTable(costs, mode=mode, cache_enabled=False)
                # Oldest connection = worst case for the list.
                target = PCB(local_ip=1, local_port=9, remote_ip=2,
                             remote_port=9)
                table.insert(target)
                for i in range(population - 1):
                    table.insert(PCB(local_ip=1, local_port=100 + i,
                                     remote_ip=2, remote_port=9))
                _, cost_ns, _ = table.lookup(1, 9, 2, 9)
                row[mode.value] = to_us(cost_ns)
            out[population] = row
        return out

    out = run()
    rows = [(n, round(v["list"], 1), round(v["hash"], 1))
            for n, v in out.items()]
    print()
    print(format_table("PCB demux cost by structure (worst-case, us)",
                       ("PCBs", "list", "hash"), rows))
    assert out[10]["list"] < 40
    assert out[1000]["list"] > 1000
    assert out[1000]["hash"] == out[10]["hash"]


def test_ablation_cluster_threshold():
    """§2.2.1: sweep the socket layer's mbuf/cluster switchover around
    its 1 KB default; the latency step between 1000 and 1100 bytes
    exists only because of the threshold."""
    def run():
        out = {}
        for size in (900, 1000, 1100, 1300):
            out[size] = run_round_trip(size=size, iterations=6,
                                       warmup=2).mean_rtt_us
        return out

    out = run()
    rows = [(s, round(v)) for s, v in out.items()]
    print()
    print(format_table("RTT around the 1 KB cluster threshold (us)",
                       ("size", "rtt"), rows))
    # Crossing the threshold (1000 -> 1100 bytes) costs *less* extra
    # latency than the previous 100-byte step, because cluster copies
    # and refcounted m_copy kick in.
    step_below = out[1000] - out[900]
    step_across = out[1100] - out[1000]
    assert step_across < step_below


def test_ablation_partial_checksum_extensions():
    """§4.1.1's two suggested improvements, on the Ethernet path where
    the MSS (1460) misaligns with 4 KB copy chunks."""
    def run():
        base = KernelConfig(checksum_mode=ChecksumMode.INTEGRATED)
        variants = {
            "integrated (plain)": base,
            "+ segment prediction": base.with_overrides(
                socket_segment_prediction=True),
            "+ 4 chunks per mbuf": base.with_overrides(
                partial_chunks_per_mbuf=4),
        }
        out = {}
        for name, config in variants.items():
            result = run_round_trip(size=4000, network="ethernet",
                                    config=config, iterations=6, warmup=2)
            out[name] = (result.mean_rtt_us,
                         result.client_stats["partial_cksum_hits"],
                         result.client_stats["partial_cksum_misses"])
        return out

    out = run()
    rows = [(name, round(rtt), hits, misses)
            for name, (rtt, hits, misses) in out.items()]
    print()
    print(format_table(
        "Integrated checksum on Ethernet, 4000-byte RPCs",
        ("variant", "rtt_us", "hits", "misses"), rows, width=22))

    plain = out["integrated (plain)"]
    predicted = out["+ segment prediction"]
    multi = out["+ 4 chunks per mbuf"]
    # Plain: the partials never line up with 1460-byte segments.
    assert plain[1] == 0
    # Prediction: they always do, and latency improves.
    assert predicted[2] == 0
    assert predicted[0] < plain[0]
    # Multi-chunk: partial coverage, latency between the two.
    assert predicted[0] < multi[0] < plain[0]


def test_ablation_tx_fifo_depth():
    """How deep must the TCA-100's TX FIFO be for the driver's copy
    loop to never stall?  The calibrated copy rate fills the real
    36-cell FIFO to 21 cells on page-sized segments."""
    from repro.atm.adapter import ForeTca100
    from repro.core.testbed import build_atm_pair
    from repro.core.experiment import RoundTripBenchmark

    def run():
        out = {}
        for depth in (8, 16, 36, 292):
            original = ForeTca100.TX_FIFO_CELLS
            ForeTca100.TX_FIFO_CELLS = depth
            try:
                tb = build_atm_pair()
                bench = RoundTripBenchmark(tb, size=8000, iterations=4,
                                           warmup=1)
                result = bench.run()
                stall = (tb.client.interface.stats.tx_stall_ns
                         + tb.server.interface.stats.tx_stall_ns)
                out[depth] = (result.mean_rtt_us, to_us(stall))
            finally:
                ForeTca100.TX_FIFO_CELLS = original
        return out

    out = run()
    rows = [(d, round(rtt), round(stall)) for d, (rtt, stall)
            in out.items()]
    print()
    print(format_table(
        "8000-byte RTT vs TX FIFO depth",
        ("cells", "rtt_us", "stall_us"), rows))
    # A tiny FIFO stalls the driver's copy loop behind the wire; the
    # real 36-cell FIFO is deep enough that stalls vanish.
    assert out[8][1] > out[16][1] > out[36][1] == 0
    # Round-trip latency, however, is insensitive: the wire drains
    # slower than the driver writes, so the last cell's departure is
    # wire-paced regardless — the stall only burns CPU.  (This is why
    # FORE could get away with a 36-cell FIFO.)
    assert abs(out[8][0] - out[36][0]) < out[36][0] * 0.02
    assert abs(out[36][0] - out[292][0]) < out[36][0] * 0.02


def test_ablation_delayed_acks():
    """Delayed ACKs barely matter for RPC traffic (replies piggyback the
    ACK anyway), but ack-every-packet adds pure-ACK wire traffic."""
    def run():
        on = run_round_trip(size=500, iterations=8, warmup=2)
        off = run_round_trip(size=500, iterations=8, warmup=2,
                             config=KernelConfig(delayed_ack=False))
        return on, off

    on, off = run()
    print(f"\nRTT with delayed acks: {on.mean_rtt_us:.0f} us; "
          f"ack-every-packet: {off.mean_rtt_us:.0f} us")
    # Ack-every-packet sends standalone ACKs for every data segment.
    assert off.server_stats["pure_acks_sent"] > \
        on.server_stats["pure_acks_sent"]
    # The latency difference stays small for the RPC pattern.
    assert abs(pct_change(on.mean_rtt_us, off.mean_rtt_us)) < 12
