"""§3 ablation: where the connection sits in the PCB list.

The paper explains why header prediction's cache barely helps in its
testbed: "the TCP connection for our test program is likely to be near
the head of the PCB list since recently created connections go at the
head".  It also samples a departmental mail server with ~250 active
PCBs.  This ablation reproduces both regimes: with the benchmark
connection artificially sunk to the tail of a mail-server-sized list,
every cache miss pays the full linear search and the one-entry cache
suddenly earns its keep — while the hash-table alternative makes
position irrelevant, the paper's concluding point.
"""

from repro.core.experiment import RoundTripBenchmark, SERVER_PORT
from repro.core.report import format_table, pct_change
from repro.core.testbed import build_atm_pair
from repro.kern.config import KernelConfig, PcbLookup


def rtt_with_population(population, header_prediction=True,
                        pcb_lookup=PcbLookup.LIST, sink_to_tail=False,
                        size=200):
    config = KernelConfig(header_prediction=header_prediction,
                          pcb_lookup=pcb_lookup,
                          daemon_pcbs=population)
    tb = build_atm_pair(config=config)
    bench = RoundTripBenchmark(tb, size=size, iterations=6, warmup=2)

    def sink_tails():
        """Move the benchmark connection's PCBs to the list tails (the
        'old connection on a busy server' case) and flush the caches."""
        for host in tb.hosts:
            table = host.tcp.pcbs
            active = [p for p in table.pcbs
                      if not p.is_listener and p.connection is not None]
            # The list is an insertion-ordered dict scanned newest
            # first, so its tail is the front of the dict: re-insert the
            # connection's PCBs there, in their scan order.
            members = table._members
            rest = [p for p in members if p not in active]
            members.clear()
            for pcb in reversed(active):
                members[pcb] = None
            for pcb in rest:
                members[pcb] = None
            table._cache = None

    if sink_to_tail:
        # The connection establishes within the first couple of
        # simulated milliseconds; sink it before the measured phase.
        tb.sim.schedule(2_000_000, sink_tails)
    return bench.run()


def test_pcb_position_changes_predictions_value():
    def runs():
        out = {}
        out["head10_pred"] = rtt_with_population(10, True).mean_rtt_us
        out["head10_nopred"] = rtt_with_population(10, False).mean_rtt_us
        out["tail250_pred"] = rtt_with_population(
            250, True, sink_to_tail=True).mean_rtt_us
        out["tail250_nopred"] = rtt_with_population(
            250, False, sink_to_tail=True).mean_rtt_us
        out["tail250_hash"] = rtt_with_population(
            250, False, pcb_lookup=PcbLookup.HASH,
            sink_to_tail=True).mean_rtt_us
        return out

    out = runs()
    small = pct_change(out["head10_nopred"], out["head10_pred"])
    big = pct_change(out["tail250_nopred"], out["tail250_pred"])
    rows = [
        ("10 PCBs, near head", round(out["head10_nopred"]),
         round(out["head10_pred"]), round(small, 1)),
        ("250 PCBs, at tail", round(out["tail250_nopred"]),
         round(out["tail250_pred"]), round(big, 1)),
    ]
    print()
    print(format_table(
        "Header prediction's value vs PCB list position (200-byte RPCs)",
        ("scenario", "no-pred", "pred", "saving%"), rows, width=12))
    print(f"   250 PCBs with a hash table, no prediction: "
          f"{out['tail250_hash']:.0f} us")

    # The paper's testbed regime: negligible benefit.
    assert small < 4
    # The mail-server regime: the cache saves a ~250-entry search per
    # packet (~330 us each way): a double-digit improvement.
    assert big > 2 * max(small, 1.0)
    assert out["tail250_nopred"] - out["tail250_pred"] > 300
    # And the paper's punchline: a hash table gets (almost) all of that
    # benefit with no cache at all.
    assert out["tail250_hash"] < out["tail250_nopred"] * 0.85
