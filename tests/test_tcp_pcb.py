"""Tests for PCBs: list search, hash lookup, the 1-entry cache (§3)."""

import pytest

from repro.hw import decstation_5000_200
from repro.kern.config import PcbLookup
from repro.sim.engine import to_us
from repro.tcp.pcb import PCB, PCBError, PCBTable


@pytest.fixture()
def costs():
    return decstation_5000_200()


def make_pcb(lport, rport=99, rip=2):
    return PCB(local_ip=1, local_port=lport, remote_ip=rip,
               remote_port=rport)


class TestPCB:
    def test_listener_detection(self):
        assert PCB(local_ip=1, local_port=80).is_listener
        assert not make_pcb(80).is_listener

    def test_wildcard_match(self):
        listener = PCB(local_ip=1, local_port=80)
        assert listener.matches_wildcard(1, 80)
        assert not listener.matches_wildcard(1, 81)
        any_ip = PCB(local_ip=0, local_port=80)
        assert any_ip.matches_wildcard(42, 80)


class TestInsertRemove:
    def test_most_recent_at_head(self, costs):
        table = PCBTable(costs)
        a, b = make_pcb(1), make_pcb(2)
        table.insert(a)
        table.insert(b)
        assert table.pcbs == [b, a]

    def test_duplicate_binding_rejected(self, costs):
        table = PCBTable(costs)
        table.insert(make_pcb(1))
        with pytest.raises(PCBError):
            table.insert(make_pcb(1))

    def test_remove_unknown_rejected(self, costs):
        table = PCBTable(costs)
        with pytest.raises(PCBError):
            table.remove(make_pcb(1))

    def test_remove_clears_cache(self, costs):
        table = PCBTable(costs)
        pcb = make_pcb(1)
        table.insert(pcb)
        table.lookup(1, 1, 2, 99)
        table.remove(pcb)
        found, _, hit = table.lookup(1, 1, 2, 99)
        assert found is None and not hit


class TestListLookup:
    def test_exact_match_preferred_over_wildcard(self, costs):
        table = PCBTable(costs)
        listener = PCB(local_ip=1, local_port=80)
        exact = make_pcb(80, rport=5, rip=7)
        table.insert(listener)
        table.insert(exact)
        found, _, _ = table.lookup(1, 80, 7, 5)
        assert found is exact

    def test_wildcard_fallback(self, costs):
        table = PCBTable(costs)
        listener = PCB(local_ip=1, local_port=80)
        table.insert(listener)
        found, _, _ = table.lookup(1, 80, 1234, 9)
        assert found is listener

    def test_miss_returns_none(self, costs):
        table = PCBTable(costs, cache_enabled=False)
        table.insert(make_pcb(1))
        found, cost, hit = table.lookup(1, 2, 2, 99)
        assert found is None and not hit and cost > 0

    def test_search_cost_scales_linearly(self, costs):
        """§3: 26 µs at 20 entries, 1280 µs at 1000, ~1.3 µs/entry."""
        table = PCBTable(costs, cache_enabled=False)
        target = make_pcb(9999)
        table.insert(target)
        for i in range(999):
            table.insert(make_pcb(i + 1))
        _, cost_1000, _ = table.lookup(1, 9999, 2, 99)
        call = costs.pcb_lookup_call_us
        assert to_us(cost_1000) - call == pytest.approx(1280, rel=0.05)

        table20 = PCBTable(costs, cache_enabled=False)
        target20 = make_pcb(9999)
        table20.insert(target20)
        for i in range(19):
            table20.insert(make_pcb(i + 1))
        _, cost_20, _ = table20.lookup(1, 9999, 2, 99)
        assert to_us(cost_20) - call == pytest.approx(26, rel=0.15)


class TestCache:
    def test_cache_hit_on_repeat(self, costs):
        table = PCBTable(costs)
        pcb = make_pcb(1)
        table.insert(pcb)
        _, miss_cost, hit1 = table.lookup(1, 1, 2, 99)
        found, hit_cost, hit2 = table.lookup(1, 1, 2, 99)
        assert not hit1 and hit2
        assert found is pcb
        assert hit_cost < miss_cost
        assert table.cache_hits == 1

    def test_cache_disabled(self, costs):
        table = PCBTable(costs, cache_enabled=False)
        pcb = make_pcb(1)
        table.insert(pcb)
        table.lookup(1, 1, 2, 99)
        _, _, hit = table.lookup(1, 1, 2, 99)
        assert not hit

    def test_different_connection_misses_cache(self, costs):
        table = PCBTable(costs)
        a, b = make_pcb(1), make_pcb(2)
        table.insert(a)
        table.insert(b)
        table.lookup(1, 1, 2, 99)
        _, _, hit = table.lookup(1, 2, 2, 99)
        assert not hit

    def test_listener_not_cached(self, costs):
        table = PCBTable(costs)
        table.insert(PCB(local_ip=1, local_port=80))
        table.lookup(1, 80, 5, 5)
        _, _, hit = table.lookup(1, 80, 5, 5)
        assert not hit  # wildcard hits must not poison the cache


class TestHashLookup:
    def test_hash_exact(self, costs):
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        pcb = make_pcb(1)
        table.insert(pcb)
        found, cost, _ = table.lookup(1, 1, 2, 99)
        assert found is pcb
        assert to_us(cost) == pytest.approx(
            costs.pcb_lookup_call_us + costs.pcb_hash_lookup_us)

    def test_hash_wildcard_second_probe(self, costs):
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        listener = PCB(local_ip=1, local_port=80)
        table.insert(listener)
        found, cost, _ = table.lookup(1, 80, 7, 7)
        assert found is listener
        assert to_us(cost) == pytest.approx(
            costs.pcb_lookup_call_us + 2 * costs.pcb_hash_lookup_us)

    def test_hash_cost_independent_of_size(self, costs):
        """The §3 claim: a hash table eliminates the lookup problem."""
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        target = make_pcb(9999)
        table.insert(target)
        for i in range(999):
            table.insert(make_pcb(i + 1))
        _, cost, _ = table.lookup(1, 9999, 2, 99)
        assert to_us(cost) == pytest.approx(
            costs.pcb_lookup_call_us + costs.pcb_hash_lookup_us)


class TestHashWildcardFallbackOrder:
    """_lookup_hash probes exact 4-tuple, then the local-address
    listener bucket, then the any-address listener bucket — in that
    order, like in_pcblookup's wildcard-preference rules."""

    def test_exact_match_wins_over_coexisting_listener(self, costs):
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        listener = PCB(local_ip=1, local_port=80)
        connected = PCB(local_ip=1, local_port=80,
                        remote_ip=7, remote_port=7)
        table.insert(listener)
        table.insert(connected)
        found, cost, _ = table.lookup(1, 80, 7, 7)
        assert found is connected
        # One probe: the exact bucket hit, so no wildcard surcharge.
        assert to_us(cost) == pytest.approx(
            costs.pcb_lookup_call_us + costs.pcb_hash_lookup_us)
        # A different remote endpoint falls back to the listener.
        found, _, _ = table.lookup(1, 80, 8, 8)
        assert found is listener

    def test_local_listener_preferred_over_any_address(self, costs):
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        any_addr = PCB(local_ip=0, local_port=80)
        local = PCB(local_ip=1, local_port=80)
        table.insert(any_addr)
        table.insert(local)
        found, _, _ = table.lookup(1, 80, 7, 7)
        assert found is local

    def test_any_address_listener_is_last_resort(self, costs):
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        any_addr = PCB(local_ip=0, local_port=80)
        table.insert(any_addr)
        found, cost, _ = table.lookup(5, 80, 7, 7)
        assert found is any_addr
        # Missed the exact bucket: the wildcard probes cost double.
        assert to_us(cost) == pytest.approx(
            costs.pcb_lookup_call_us + 2 * costs.pcb_hash_lookup_us)

    def test_full_fallback_chain(self, costs):
        table = PCBTable(costs, mode=PcbLookup.HASH, cache_enabled=False)
        any_addr = PCB(local_ip=0, local_port=80)
        local = PCB(local_ip=1, local_port=80)
        connected = PCB(local_ip=1, local_port=80,
                        remote_ip=7, remote_port=7)
        table.insert(any_addr)
        table.insert(local)
        table.insert(connected)
        assert table.lookup(1, 80, 7, 7)[0] is connected
        assert table.lookup(1, 80, 9, 9)[0] is local
        assert table.lookup(2, 80, 9, 9)[0] is any_addr
        assert table.lookup(1, 81, 7, 7)[0] is None
