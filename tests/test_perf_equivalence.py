"""The optimized engine must be *observably identical* to the seed.

``tests/perf_golden/*.json`` was captured from the seed engine before
any of the hot-path work (tuple heap entries, handle pooling, heap
compaction, direct timeout dispatch, adaptive checksum, mbuf free
list) landed.  Each fixture holds the full observable surface of one
round-trip run — every packet-log line, every RTT sample, and the
conservation counters (CPU busy ns, jobs, preemptions, IPQ and TCP
counts).  These tests replay the same runs on the current engine, both
with ``Simulator.advance`` stubbed to refuse (the general path, where
every CPU charge costs a heap event) and as shipped (the fast path,
where uncontended charges complete inside their submitter), and
require byte-for-byte equality.

``tests/perf_golden/tables.txt`` pins the printed paper tables the same
way: the text of ``python -m repro table1 … table7 summary`` with the
``[… regenerated in …]`` timing lines left out.
"""

import json
import os

import pytest

from repro.analysis.racecheck import digest_round_trip
from repro.core.experiment import RoundTripBenchmark, run_round_trip
from repro.core.packetlog import attach_packet_log
from repro.core.testbed import build_pair
from repro.kern.config import KernelConfig
from repro.sim.engine import Simulator

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "perf_golden")
CASES = sorted(f[:-5] for f in os.listdir(GOLDEN_DIR)
               if f.endswith(".json"))


def load(case):
    with open(os.path.join(GOLDEN_DIR, case + ".json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    config = KernelConfig(**doc["config"]) if doc["config"] else KernelConfig()
    return doc, config


@pytest.mark.parametrize("case", CASES)
def test_hooked_run_matches_seed_golden(case, monkeypatch):
    """General path: the shortcut forced off, so every charge is an
    event; digested by the racechecker."""
    doc, config = load(case)
    monkeypatch.setattr(Simulator, "advance", lambda self, time: False)
    digest = digest_round_trip(config=config, **doc["kwargs"])
    assert digest.invariant_violations == []
    assert digest.lines == doc["lines"]
    assert digest.samples == doc["samples"]
    spans = {name: total for name, total in digest.counters.items()
             if ".span." in name}
    assert {name: value for name, value in digest.counters.items()
            if name not in spans} == doc["counters"]
    # The fixtures predate the digest's span totals: the general path's
    # must equal the fast path's, name for name and bit for bit.
    monkeypatch.undo()
    plain = run_round_trip(config=config, **doc["kwargs"])
    assert spans == {
        f"{host}.span.{name}": total
        for host, totals in (("client", plain.client_spans),
                             ("server", plain.server_spans))
        for name, total in totals.items()}


@pytest.mark.parametrize("case", CASES)
def test_fast_path_run_matches_seed_golden(case):
    """Fast path: the same runs with the inline-charge shortcut on."""
    doc, config = load(case)
    kwargs = doc["kwargs"]
    testbed = build_pair(kwargs["network"], config=config)
    log = attach_packet_log(testbed)
    result = RoundTripBenchmark(testbed, kwargs["size"],
                                iterations=kwargs["iterations"],
                                warmup=kwargs["warmup"]).run()
    assert log.format().splitlines() == doc["lines"]
    assert list(result.rtt_us) == doc["samples"]
    counters = doc["counters"]
    for host in testbed.hosts:
        assert host.cpu.busy_ns == counters[f"{host.name}.cpu.busy_ns"]
        assert host.cpu.jobs_completed == counters[f"{host.name}.cpu.jobs"]
        assert host.cpu.preemptions == \
            counters[f"{host.name}.cpu.preemptions"]
        assert host.softnet.dispatched == \
            counters[f"{host.name}.ipq.dispatched"]


def test_goldens_cover_both_networks_and_a_config_variant():
    """Guard against the fixture set silently shrinking."""
    docs = [load(case)[0] for case in CASES]
    networks = {doc["kwargs"]["network"] for doc in docs}
    assert networks == {"atm", "ethernet"}
    assert any(doc["config"] for doc in docs)
    assert any(doc["kwargs"]["size"] >= 8000 for doc in docs)


TABLE_SECTIONS = ("table1", "table2", "table3", "table4", "table5",
                  "table6", "table7", "summary")


def test_printed_tables_match_golden(capsys):
    """Tables 1-7 and the summary, byte for byte, as the CLI prints them
    (one blank line between sections)."""
    from repro.__main__ import SECTIONS

    for i, name in enumerate(TABLE_SECTIONS):
        if i:
            print()
        SECTIONS[name]()
    with open(os.path.join(GOLDEN_DIR, "tables.txt"),
              encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_metrics_dump_matches_golden(capsys):
    """``python -m repro metrics table1 --size 1400 --iterations 4``,
    byte for byte: every published counter's name and value."""
    from repro.__main__ import main

    assert main(["repro", "metrics", "table1", "--size", "1400",
                 "--iterations", "4"]) == 0
    with open(os.path.join(GOLDEN_DIR, "metrics_table1.txt"),
              encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
