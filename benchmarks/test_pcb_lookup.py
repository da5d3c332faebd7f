"""§3 in-text: PCB lookup cost microbenchmark.

The paper measures linear searches from 20 entries (26 µs) to 1000
entries (1280 µs), finding a clean 1.3 µs/entry line, and argues a hash
table eliminates the problem; both are regenerated here.
"""

import numpy as np

from repro.core import paperdata
from repro.core.microbench import pcb_search_bench
from repro.core.report import format_table
from repro.hw import decstation_5000_200
from repro.kern.config import PcbLookup
from repro.sim.engine import to_us
from repro.tcp.pcb import PCB, PCBTable


def test_pcb_search_scales_linearly():
    points = pcb_search_bench()

    rows = [(p.entries, round(p.cost_us, 1)) for p in points]
    print()
    print(format_table("PCB linear search cost", ("entries", "cost_us"),
                       rows))

    by_entries = {p.entries: p.cost_us for p in points}
    for entries, paper_us in paperdata.PCB_SEARCH_POINTS:
        assert abs(by_entries[entries] / paper_us - 1) <= 0.15, (
            f"{entries} entries: {by_entries[entries]:.0f}us vs "
            f"paper {paper_us}us")

    # Linearity: a least-squares fit has slope ~1.3 us/entry and an
    # excellent correlation.
    xs = np.array([p.entries for p in points], dtype=float)
    ys = np.array([p.cost_us for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    assert abs(slope - paperdata.PCB_COST_PER_ENTRY_US) < 0.1
    residuals = ys - (slope * xs + intercept)
    assert float(np.max(np.abs(residuals))) < 5.0


def test_hash_table_eliminates_lookup_cost():
    """The paper's suggestion: 'a simple hash table implementation could
    eliminate the lookup problem entirely'."""
    def run():
        costs = decstation_5000_200()
        out = {}
        for n in (20, 1000):
            table = PCBTable(costs, mode=PcbLookup.HASH,
                             cache_enabled=False)
            target = PCB(local_ip=1, local_port=9999, remote_ip=2,
                         remote_port=9)
            table.insert(target)
            for i in range(n - 1):
                table.insert(PCB(local_ip=1, local_port=i + 1,
                                 remote_ip=2, remote_port=9))
            _, cost_ns, _ = table.lookup(1, 9999, 2, 9)
            out[n] = to_us(cost_ns)
        return out

    out = run()
    assert out[20] == out[1000]
    assert out[1000] < 20  # vs ~1290 us for the list


def test_typical_pcb_populations_are_modest():
    """§3: a mail server has <250 active PCBs, workstations <50 — so the
    cache savings with a short list are small by construction."""
    def run():
        costs = decstation_5000_200()
        return {n: costs.pcb_search_ns(n) / 1000.0 for n in (50, 250)}

    cost = run()
    assert cost[50] < 100
    assert cost[250] < 400
