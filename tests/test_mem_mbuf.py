"""Unit + property tests for the mbuf subsystem."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import decstation_5000_200
from repro.mem import (
    CLUSTER_THRESHOLD,
    MBUF_DATA_SIZE,
    MCLBYTES,
    ClusterStorage,
    Mbuf,
    MbufChain,
    MbufError,
    MbufPool,
)
from repro.sim.engine import to_us


@pytest.fixture()
def pool():
    return MbufPool(decstation_5000_200())


class TestMbuf:
    def test_constants_match_paper(self):
        assert MBUF_DATA_SIZE == 108
        assert MCLBYTES == 4096
        assert CLUSTER_THRESHOLD == 1024

    def test_normal_capacity_enforced(self):
        Mbuf(data=bytes(108))
        with pytest.raises(MbufError):
            Mbuf(data=bytes(109))

    def test_cluster_capacity_enforced(self):
        Mbuf(cluster=ClusterStorage(bytes(4096)))
        with pytest.raises(MbufError):
            ClusterStorage(bytes(4097))

    def test_use_after_free(self, pool):
        mbuf, _ = pool.alloc(b"abc")
        pool.free(mbuf)
        with pytest.raises(MbufError):
            _ = mbuf.data

    def test_double_free(self, pool):
        mbuf, _ = pool.alloc(b"abc")
        pool.free(mbuf)
        with pytest.raises(MbufError):
            pool.free(mbuf)


class TestAllocatorCosts:
    def test_alloc_plus_free_is_about_7us(self, pool):
        """§2.2.1: 'just over 7us' to allocate and free, either type."""
        mbuf, alloc_cost = pool.alloc(b"x")
        free_cost = pool.free(mbuf)
        total_us = to_us(alloc_cost + free_cost)
        assert 7.0 <= total_us <= 7.5
        cl, alloc_cost = pool.alloc_cluster(bytes(4096))
        free_cost = pool.free(cl)
        assert 7.0 <= to_us(alloc_cost + free_cost) <= 7.5

    def test_statistics(self, pool):
        a, _ = pool.alloc(b"a")
        b, _ = pool.alloc_cluster(b"b")
        assert pool.allocated == 2
        assert pool.cluster_allocated == 1
        assert pool.in_use == 2
        pool.free(a)
        pool.free(b)
        assert pool.in_use == 0
        assert pool.high_water == 2


class TestChainBuilding:
    def test_chunk_sizes_small(self, pool):
        assert pool.chunk_sizes(4, use_clusters=False) == [4]
        assert pool.chunk_sizes(108, use_clusters=False) == [108]
        assert pool.chunk_sizes(200, use_clusters=False) == [108, 92]
        assert pool.chunk_sizes(500, use_clusters=False) == [108] * 4 + [68]

    def test_chunk_sizes_cluster(self, pool):
        assert pool.chunk_sizes(1400, use_clusters=True) == [1400]
        assert pool.chunk_sizes(8000, use_clusters=True) == [4096, 3904]

    def test_zero_length_chain(self, pool):
        chain, _ = pool.build_chain(b"", use_clusters=False)
        assert chain.length == 0
        assert chain.mbuf_count == 1  # an empty mbuf, like MGET with len 0

    @given(st.integers(min_value=0, max_value=9000),
           st.booleans())
    def test_build_chain_roundtrips_data(self, size, clusters):
        pool = MbufPool(decstation_5000_200())
        data = bytes(i & 0xFF for i in range(size))
        chain, _ = pool.build_chain(data, use_clusters=clusters)
        assert chain.to_bytes() == data
        assert chain.length == size

    def test_mbuf_counts_match_paper_examples(self, pool):
        """§2.2.1: 'One to eight mbufs are used for transfers < 1 KB'."""
        for size in (4, 20, 80, 200, 500):
            chain, _ = pool.build_chain(bytes(size), use_clusters=False)
            assert 1 <= chain.mbuf_count <= 8
        chain, _ = pool.build_chain(bytes(1000), use_clusters=False)
        assert chain.mbuf_count <= 10


class TestChainOps:
    def test_slice_bytes(self, pool):
        data = bytes(range(250))
        chain, _ = pool.build_chain(data, use_clusters=False)
        assert chain.slice_bytes(0, 250) == data
        assert chain.slice_bytes(100, 50) == data[100:150]
        with pytest.raises(MbufError):
            chain.slice_bytes(200, 100)

    def test_mbufs_spanning(self, pool):
        chain, _ = pool.build_chain(bytes(300), use_clusters=False)
        spans = chain.mbufs_spanning(100, 120)
        assert sum(take for _, _, take in spans) == 120
        # Starts inside the first 108-byte mbuf.
        first_mbuf, start, take = spans[0]
        assert start == 100 and take == 8

    @given(st.integers(min_value=1, max_value=2000),
           st.data())
    def test_spanning_covers_exact_bytes(self, size, data):
        pool = MbufPool(decstation_5000_200())
        payload = bytes(i & 0xFF for i in range(size))
        chain, _ = pool.build_chain(payload, use_clusters=size > 1024)
        offset = data.draw(st.integers(min_value=0, max_value=size))
        length = data.draw(st.integers(min_value=0, max_value=size - offset))
        pieces = b"".join(
            m.data[s:s + t] for m, s, t in chain.mbufs_spanning(offset, length)
        )
        assert pieces == payload[offset:offset + length]


class TestMCopy:
    def test_small_mbuf_copy_duplicates_data(self, pool):
        chain, _ = pool.build_chain(bytes(500), use_clusters=False)
        copy, cost = pool.m_copy(chain, 0, 500)
        assert copy.to_bytes() == chain.to_bytes()
        assert copy.cluster_count == 0
        assert cost > 0

    def test_cluster_copy_shares_storage(self, pool):
        chain, _ = pool.build_chain(bytes(4096), use_clusters=True)
        copy, _ = pool.m_copy(chain, 0, 4096)
        assert copy.mbufs[0].cluster is chain.mbufs[0].cluster
        assert chain.mbufs[0].cluster.refs == 2
        pool.free_chain(copy)
        assert chain.mbufs[0].cluster.refs == 1

    def test_cluster_copy_cheaper_than_small_copy(self, pool):
        """§2.2.1: refcounted cluster copy beats data-copying small mbufs.
        This is why Table 2's mcopy row *drops* from 500 to 1400 bytes."""
        small_chain, _ = pool.build_chain(bytes(500), use_clusters=False)
        _, small_cost = pool.m_copy(small_chain, 0, 500)
        cluster_chain, _ = pool.build_chain(bytes(1400), use_clusters=True)
        _, cluster_cost = pool.m_copy(cluster_chain, 0, 1400)
        assert cluster_cost < small_cost

    def test_partial_range_copy(self, pool):
        data = bytes(range(200))
        chain, _ = pool.build_chain(data, use_clusters=False)
        copy, _ = pool.m_copy(chain, 50, 100)
        assert copy.to_bytes() == data[50:150]

    def test_partial_sum_preserved_for_whole_mbufs(self, pool):
        chain, _ = pool.build_chain(bytes(100), use_clusters=False)
        chain.mbufs[0].partial_sum = (1234, 100)
        copy, _ = pool.m_copy(chain, 0, 100)
        assert copy.mbufs[0].partial_sum == (1234, 100)


class TestDropFront:
    def test_drop_whole_mbufs(self, pool):
        chain, _ = pool.build_chain(bytes(range(216)), use_clusters=False)
        pool.drop_front(chain, 108)
        assert chain.length == 108
        assert chain.to_bytes() == bytes(range(216))[108:]

    def test_drop_partial_mbuf(self, pool):
        data = bytes(range(200))
        chain, _ = pool.build_chain(data, use_clusters=False)
        pool.drop_front(chain, 50)
        assert chain.to_bytes() == data[50:]

    def test_drop_too_much_rejected(self, pool):
        chain, _ = pool.build_chain(bytes(10), use_clusters=False)
        with pytest.raises(MbufError):
            pool.drop_front(chain, 11)

    @given(st.integers(min_value=0, max_value=1500), st.data())
    def test_drop_preserves_suffix(self, size, data):
        pool = MbufPool(decstation_5000_200())
        payload = bytes(i & 0xFF for i in range(size))
        chain, _ = pool.build_chain(payload, use_clusters=size > 1024)
        n = data.draw(st.integers(min_value=0, max_value=size))
        pool.drop_front(chain, n)
        assert chain.to_bytes() == payload[n:]


class TestFreeList:
    """Header recycling: modelled costs and safety semantics must be
    untouched; only Python-level allocation churn goes away."""

    def test_freed_header_is_reused(self, pool):
        chain, _ = pool.build_chain(b"x" * 300, use_clusters=False)
        count = chain.mbuf_count
        pool.free_chain(chain)
        assert pool.free_list_depth == count
        chain2, _ = pool.build_chain(b"y" * 300, use_clusters=False)
        assert pool.reused == count
        assert chain2.to_bytes() == b"y" * 300
        assert pool.free_list_depth == 0

    def test_reuse_covers_cluster_headers(self, pool):
        chain, _ = pool.build_chain(b"z" * 2000, use_clusters=True)
        pool.free_chain(chain)
        depth = pool.free_list_depth
        assert depth >= 1
        chain2, _ = pool.build_chain(b"w" * 2000, use_clusters=True)
        assert pool.reused >= 1
        assert chain2.to_bytes() == b"w" * 2000

    def test_retained_reference_is_not_recycled(self, pool):
        """A header some caller still holds keeps its identity — and
        its freed flag — so use-after-free detection survives."""
        mbuf, _ = pool.alloc(b"kept")
        pool.free(mbuf)  # caller still holds `mbuf`
        assert pool.free_list_depth == 0
        assert mbuf.freed
        with pytest.raises(MbufError):
            pool.free(mbuf)  # double free still detected
        # And a fresh alloc cannot alias the retained header.
        fresh, _ = pool.alloc(b"new")
        assert fresh is not mbuf

    def test_use_after_free_still_raises_through_reuse_cycle(self, pool):
        chain, _ = pool.build_chain(b"a" * 100, use_clusters=False)
        pool.free_chain(chain)
        # Recycle the header into a new allocation...
        mbuf, _ = pool.alloc(b"b" * 50)
        assert pool.reused == 1
        # ...then free it and poke it: still flagged.
        pool.free(mbuf)
        assert mbuf.freed
        with pytest.raises(MbufError):
            pool.free(mbuf)

    def test_modelled_costs_unchanged_by_reuse(self, pool):
        mbuf, cost_first = pool.alloc(b"x")
        held = [mbuf]
        del mbuf
        pool.free(held.pop())  # pop first: sole-reference free
        assert pool.free_list_depth == 1
        _, cost_reused = pool.alloc(b"x")
        assert pool.reused == 1
        assert cost_reused == cost_first  # 1994 cycle model, not ours

    def test_reuse_counters_reach_metrics_registry(self):
        from repro.core.experiment import run_round_trip
        from repro.obs import Observer

        obs = Observer()
        run_round_trip(size=1400, iterations=4, warmup=1, observer=obs)
        for host in obs.testbeds[-1].hosts:
            pool = host.pool
            assert pool.reused > 0
            assert (obs.metrics.value(f"{host.name}.mbuf.allocated")
                    == pool.allocated)
            assert obs.metrics.value(f"{host.name}.mbuf.reused") == \
                pool.reused

    def test_free_list_is_bounded(self, pool):
        from repro.mem.mbuf import _FREE_LIST_MAX

        chains = [pool.build_chain(b"q" * 108, use_clusters=False)[0]
                  for _ in range(_FREE_LIST_MAX + 50)]
        for chain in chains:
            pool.free_chain(chain)
        assert pool.free_list_depth <= _FREE_LIST_MAX

    def test_oversize_reuse_request_raises_and_keeps_header(self, pool):
        held = [pool.alloc(b"s")[0]]
        pool.free(held.pop())  # pop first: sole-reference free
        assert pool.free_list_depth == 1
        with pytest.raises(MbufError):
            pool.alloc(b"t" * 500)  # exceeds normal capacity
        assert pool.free_list_depth == 1  # header returned to the list


@pytest.fixture()
def san_pool():
    return MbufPool(decstation_5000_200(), sanitize=True)


class TestSanitizer:
    """Runtime sanitizer: provenance, poison, generations, live audit."""

    def test_env_var_enables_sanitizer(self, monkeypatch):
        from repro.mem import sanitize_enabled

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert not sanitize_enabled()

    def test_allocation_records_site_and_generation(self, san_pool):
        first, _ = san_pool.alloc(b"a")
        second, _ = san_pool.alloc(b"b")
        assert first.san is not None and second.san is not None
        assert "test_mem_mbuf.py" in first.san.alloc_site
        assert "in test_allocation_records_site_and_generation" \
            in first.san.alloc_site
        assert second.san.generation == first.san.generation + 1

    def test_double_free_names_both_sites(self, san_pool):
        mbuf, _ = san_pool.alloc(b"x")
        held = [mbuf]  # keep a reference so the header is not recycled
        san_pool.free(mbuf)
        with pytest.raises(MbufError) as err:
            san_pool.free(held[0])
        message = str(err.value)
        assert "double free" in message
        assert "allocated at" in message and "freed at" in message

    def test_use_after_free_names_allocation(self, san_pool):
        mbuf, _ = san_pool.alloc(b"y")
        held = [mbuf]
        san_pool.free(mbuf)
        with pytest.raises(MbufError) as err:
            held[0].data
        assert "use after free" in str(err.value)
        assert "allocated at" in str(err.value)

    def test_poison_on_free_normal_mbuf(self, san_pool):
        from repro.mem import POISON_BYTE

        mbuf, _ = san_pool.alloc(b"hello")
        held = [mbuf]
        san_pool.free(mbuf)
        assert bytes(held[0]._data) == bytes([POISON_BYTE]) * 5

    def test_cluster_poisoned_only_when_last_ref_dies(self, san_pool):
        from repro.mem import POISON_BYTE

        chain, _ = san_pool.build_chain(b"c" * 4096, use_clusters=True)
        copy, _ = san_pool.m_copy(chain, 0, 4096)
        storage = chain.mbufs[0].cluster
        assert storage is copy.mbufs[0].cluster and storage.refs == 2
        san_pool.free_chain(chain)
        # The copy still shares the page: it must not be poisoned yet.
        assert storage.data[:1] == b"c"
        san_pool.free_chain(copy)
        assert storage.data == bytes([POISON_BYTE]) * 4096

    def test_live_report_names_leaks_and_clears_on_free(self, san_pool):
        chain, _ = san_pool.build_chain(b"z" * 200, use_clusters=False)
        report = san_pool.sanitizer.live_report(set())
        assert len(report) == chain.mbuf_count
        assert all("allocated at" in line for line in report)
        # Excluding the held mbufs models "reachable from a sockbuf".
        held = {id(m) for m in chain.mbufs}
        assert san_pool.sanitizer.live_report(held) == []
        san_pool.free_chain(chain)
        assert san_pool.sanitizer.live_report(set()) == []

    def test_sanitizer_off_by_default_and_costs_unchanged(self, san_pool,
                                                          monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = MbufPool(decstation_5000_200())
        assert plain.sanitizer is None
        _, cost_plain = plain.alloc(b"p")
        _, cost_san = san_pool.alloc(b"p")
        assert cost_plain == cost_san

    def test_free_list_recycling_still_works_when_sanitized(self,
                                                            san_pool):
        held = [san_pool.alloc(b"r")[0]]
        san_pool.free(held.pop())  # pop first: sole-reference free
        assert san_pool.free_list_depth == 1
        reused, _ = san_pool.alloc(b"s")
        assert san_pool.reused == 1
        assert reused.san is not None  # fresh provenance, not stale
        assert reused.san.free_site is None


class TestDropFrontClusterTrim:
    """Regression: drop_front once leaked the old ClusterStorage ref
    when trimming within a shared cluster (m_copy retransmission
    copies kept the page alive forever)."""

    def test_partial_trim_releases_old_storage_ref(self, pool):
        chain, _ = pool.build_chain(b"d" * 4096, use_clusters=True)
        copy, _ = pool.m_copy(chain, 0, 4096)
        storage = chain.mbufs[0].cluster
        assert storage.refs == 2
        pool.drop_front(chain, 1000)  # partial: trims within the page
        # The original chain now owns a fresh trimmed page; its ref on
        # the shared page must be gone, leaving only the copy's.
        assert chain.mbufs[0].cluster is not storage
        assert storage.refs == 1
        pool.free_chain(copy)
        assert storage.refs == 0

    def test_trim_conserves_pool_accounting_with_sanitizer(self,
                                                           san_pool):
        chain, _ = san_pool.build_chain(b"e" * 8192, use_clusters=True)
        copy, _ = san_pool.m_copy(chain, 0, 8192)
        san_pool.drop_front(chain, 4096 + 500)  # drop one page + part
        san_pool.free_chain(chain)
        san_pool.free_chain(copy)
        assert san_pool.in_use == 0
        assert san_pool.sanitizer.live_report(set()) == []
