"""The simulation race detector and its conservation audit.

Two obligations: a deliberately ordering-sensitive program (two
handlers at the same timestamp mutating shared state) must be flagged,
and the paper's Table 1 ATM round-trip target must pass clean — its
packet logs byte-identical under every tie-break perturbation.
"""

import pytest

from repro.analysis import (
    RunDigest,
    check_ipq_conservation,
    check_scenario,
    compare_digests,
    digest_round_trip,
    racecheck_round_trip,
)
from repro.sim.engine import Simulator, tiebreak_keyfn
from repro.sim.errors import SchedulingError


# ----------------------------------------------------------------------
# Engine tie-break policies
# ----------------------------------------------------------------------
def _order_of(tiebreak, n=6):
    sim = Simulator(tiebreak=tiebreak)
    out = []
    for i in range(n):
        sim.schedule(100, out.append, i)
    sim.run()
    return out


def test_fifo_is_insertion_order_and_default():
    assert _order_of(None) == list(range(6))
    assert _order_of("fifo") == list(range(6))
    assert Simulator().tiebreak == "fifo"


def test_lifo_reverses_equal_time_events():
    assert _order_of("lifo") == list(reversed(range(6)))


def test_shuffle_is_seed_deterministic():
    assert _order_of("shuffle:7") == _order_of("shuffle:7")
    assert _order_of("shuffle:7") != _order_of("shuffle:8")
    assert sorted(_order_of("shuffle:7")) == list(range(6))


def test_tiebreak_preserves_causal_chains():
    # Events scheduled *from* a handler at the same timestamp still run
    # after their parent regardless of policy: perturbation reorders
    # only logically-concurrent events already coexisting in the queue.
    for policy in (None, "lifo", "shuffle:3"):
        sim = Simulator(tiebreak=policy)
        out = []

        def parent():
            out.append("parent")
            sim.schedule(0, out.append, "child")

        sim.schedule(50, parent)
        sim.run()
        assert out == ["parent", "child"], policy


def test_unknown_policy_rejected():
    with pytest.raises(SchedulingError):
        Simulator(tiebreak="random")
    with pytest.raises(SchedulingError):
        tiebreak_keyfn("shuffle:notanumber")


# ----------------------------------------------------------------------
# Race detection on a toy ordering-sensitive program
# ----------------------------------------------------------------------
def _racy_digest(tiebreak):
    """Two handlers at the same timestamp mutate shared state in an
    order-dependent way — the canonical simulation race."""
    sim = Simulator(tiebreak=tiebreak)
    shared = {"value": 0, "trace": []}

    def doubler():
        shared["value"] = shared["value"] * 2
        shared["trace"].append(f"doubler -> {shared['value']}")

    def incrementer():
        shared["value"] = shared["value"] + 3
        shared["trace"].append(f"incrementer -> {shared['value']}")

    sim.schedule(100, doubler)
    sim.schedule(100, incrementer)
    sim.run()
    return RunDigest(tiebreak=tiebreak or "fifo",
                     lines=list(shared["trace"]),
                     counters={"value": shared["value"]})


def test_racecheck_flags_ordering_sensitive_program():
    report = check_scenario(_racy_digest, target="toy-race")
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "packet-log" in kinds  # the trace lines diverge
    assert "counters" in kinds    # and so does the final value
    assert any(d.tiebreak == "lifo" for d in report.divergences)
    assert "RACE" in report.format()


def test_racecheck_passes_ordering_insensitive_program():
    def commutative_digest(tiebreak):
        sim = Simulator(tiebreak=tiebreak)
        total = []
        for i in range(5):
            sim.schedule(100, total.append, i)
        sim.run()
        return RunDigest(tiebreak=tiebreak or "fifo",
                         counters={"sum": sum(total)})

    report = check_scenario(commutative_digest, target="toy-sum")
    assert report.ok
    assert "OK" in report.format()


def test_compare_digests_reports_first_divergence():
    a = RunDigest(tiebreak="fifo", lines=["x", "y"], samples=[1.0])
    b = RunDigest(tiebreak="lifo", lines=["x", "z"], samples=[2.0])
    divergences = compare_digests(a, b)
    kinds = {d.kind: d for d in divergences}
    assert "line 2" in kinds["packet-log"].detail
    assert "sample 0" in kinds["samples"].detail


def test_span_total_divergence_names_the_span():
    # A Table 2/3 row that moved with same-time event order is a race.
    base = digest_round_trip(size=200, iterations=2)
    assert base.counters["server.span.rx.ipq"] > 0
    other = RunDigest(tiebreak="lifo", lines=list(base.lines),
                      samples=list(base.samples),
                      counters=dict(base.counters))
    other.counters["server.span.rx.ipq"] += 0.04
    divergences = compare_digests(base, other)
    assert [d.kind for d in divergences] == ["counters"]
    assert divergences[0].detail.startswith("server.span.rx.ipq: ")


# ----------------------------------------------------------------------
# The Table 1 ATM target must be ordering-clean
# ----------------------------------------------------------------------
def test_table1_atm_round_trip_is_race_free():
    report = racecheck_round_trip("table1", size=200, iterations=2)
    assert report.ok, report.format()
    assert report.baseline.lines, "packet log must not be empty"
    assert len(report.runs) == 3
    for run in report.runs:
        assert run.lines == report.baseline.lines
        assert run.samples == report.baseline.samples
        assert run.invariant_violations == []


def test_digest_is_reproducible_per_tiebreak():
    a = digest_round_trip(size=80, iterations=2, tiebreak="shuffle:5")
    b = digest_round_trip(size=80, iterations=2, tiebreak="shuffle:5")
    assert a.lines == b.lines
    assert a.samples == b.samples
    assert a.counters == b.counters


# ----------------------------------------------------------------------
# Conservation audits
# ----------------------------------------------------------------------
def test_ipq_conservation_checks_counters():
    class FakeSoftnet:
        enqueued = 5
        dispatched = 4
        dropped_full = 1
        queue_length = 0

    class FakeHost:
        name = "h"
        softnet = FakeSoftnet()

    assert check_ipq_conservation(FakeHost()) == []
    FakeSoftnet.dispatched = 3
    violations = check_ipq_conservation(FakeHost())
    assert violations and "ipq-conservation[h]" in violations[0]
