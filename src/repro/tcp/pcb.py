"""Protocol control blocks and the demultiplexing structures of §3.

BSD 4.4 keeps PCBs on a linked list with the most recent creation at the
head, searched linearly on every incoming packet unless the single-entry
cache hits.  The paper measures the search at just under 1.3 µs per
entry on the DECstation (26 µs at 20 entries, 1280 µs at 1000) and
suggests that "a simple hash table implementation could eliminate the
lookup problem entirely"; both structures are implemented here.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.kern.config import PcbLookup

__all__ = ["PCB", "PCBTable", "PCBError"]


class PCBError(Exception):
    """PCB table misuse (duplicate binding, missing entry)."""


_FourTuple = Tuple[int, int, int, int]

#: Sentinel distinguishing "absent" from a stored None in dict pops.
_MISSING = object()


class PCB:
    """One protocol control block: the 4-tuple plus its connection."""

    _ids = itertools.count(1)

    __slots__ = ("local_ip", "local_port", "remote_ip", "remote_port",
                 "connection", "pcb_id")

    def __init__(self, local_ip: int, local_port: int,
                 remote_ip: int = 0, remote_port: int = 0,
                 connection=None):
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.connection = connection
        self.pcb_id = next(self._ids)

    @property
    def key(self) -> _FourTuple:
        return (self.local_ip, self.local_port,
                self.remote_ip, self.remote_port)

    @property
    def is_listener(self) -> bool:
        return self.remote_ip == 0 and self.remote_port == 0

    def matches(self, local_ip: int, local_port: int,
                remote_ip: int, remote_port: int) -> bool:
        """Exact 4-tuple match."""
        return (self.local_ip == local_ip and self.local_port == local_port
                and self.remote_ip == remote_ip
                and self.remote_port == remote_port)

    def matches_wildcard(self, local_ip: int, local_port: int) -> bool:
        """Listener match: local endpoint only."""
        return (self.is_listener and self.local_port == local_port
                and self.local_ip in (0, local_ip))

    def __repr__(self) -> str:
        return (f"<PCB {self.local_ip:#x}:{self.local_port} <- "
                f"{self.remote_ip:#x}:{self.remote_port}>")


class PCBTable:
    """The PCB set with both §3 lookup structures and the 1-entry cache.

    Lookup returns ``(pcb, cost_ns, cache_hit)`` so the caller (running
    in simulated kernel context) can charge the modelled search time.
    """

    def __init__(self, costs, mode: PcbLookup = PcbLookup.LIST,
                 cache_enabled: bool = True):
        self.costs = costs
        self.mode = mode
        self.cache_enabled = cache_enabled
        #: The BSD list, stored as an insertion-ordered dict (used as an
        #: ordered set keyed by identity) and iterated **newest first**
        #: via ``reversed`` — the scan order of in_pcballoc's
        #: head-insertion — so removal is O(1) instead of a list
        #: ``remove`` that walls off thousand-connection teardown.
        self._members: Dict[PCB, None] = {}
        self._hash: Dict[_FourTuple, PCB] = {}
        #: local port -> number of PCBs bound to it, so ephemeral-port
        #: allocation is a membership probe, not a table scan.
        self._local_ports: Dict[int, int] = {}
        self._cache: Optional[PCB] = None
        self.lookups = 0
        self.cache_hits = 0
        self.entries_scanned = 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def pcbs(self) -> List[PCB]:
        """Most recently created PCB first, like BSD's in_pcballoc."""
        return list(reversed(self._members))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, pcb: PCB) -> None:
        """Add a PCB at the head of the list (most recent first)."""
        if pcb.key in self._hash:
            raise PCBError(f"duplicate PCB binding {pcb.key}")
        self._members[pcb] = None
        self._hash[pcb.key] = pcb
        ports = self._local_ports
        ports[pcb.local_port] = ports.get(pcb.local_port, 0) + 1

    def remove(self, pcb: PCB) -> None:
        if self._members.pop(pcb, _MISSING) is _MISSING:
            raise PCBError(f"PCB not in table: {pcb!r}")
        del self._hash[pcb.key]
        ports = self._local_ports
        count = ports[pcb.local_port] - 1
        if count:
            ports[pcb.local_port] = count
        else:
            del ports[pcb.local_port]
        if self._cache is pcb:
            self._cache = None

    def local_port_bound(self, port: int) -> bool:
        """Whether any PCB is bound to local *port* (O(1))."""
        return port in self._local_ports

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, local_ip: int, local_port: int, remote_ip: int,
               remote_port: int) -> Tuple[Optional[PCB], int, bool]:
        """Demultiplex an incoming segment.

        Returns ``(pcb_or_None, cost_ns, cache_hit)``.  The single-entry
        cache is consulted first when enabled (the header-prediction PCB
        cache of §3); misses fall through to the configured structure.
        """
        self.lookups += 1
        cost_ns = 0
        if self.cache_enabled:
            cost_ns += int(self.costs.pcb_cache_check_us * 1000)
            cached = self._cache
            if cached is not None and cached.matches(
                    local_ip, local_port, remote_ip, remote_port):
                self.cache_hits += 1
                return cached, cost_ns, True
        if self.mode is PcbLookup.HASH:
            pcb, search_ns = self._lookup_hash(
                local_ip, local_port, remote_ip, remote_port)
        else:
            pcb, search_ns = self._lookup_list(
                local_ip, local_port, remote_ip, remote_port)
        # The full in_pcblookup call costs its fixed overhead plus the
        # search; the §3 microbenchmark measures the search loop alone.
        cost_ns += int(self.costs.pcb_lookup_call_us * 1000) + search_ns
        if pcb is not None and self.cache_enabled and not pcb.is_listener:
            self._cache = pcb
        return pcb, cost_ns, False

    def _lookup_list(self, local_ip: int, local_port: int, remote_ip: int,
                     remote_port: int) -> Tuple[Optional[PCB], int]:
        """BSD's linear search; wildcard (listener) match is remembered
        but the scan continues looking for an exact match."""
        wildcard: Optional[PCB] = None
        scanned = 0
        for pcb in reversed(self._members):
            scanned += 1
            if pcb.matches(local_ip, local_port, remote_ip, remote_port):
                self.entries_scanned += scanned
                return pcb, self.costs.pcb_search_ns(scanned)
            if wildcard is None and pcb.matches_wildcard(local_ip,
                                                         local_port):
                wildcard = pcb
        self.entries_scanned += scanned
        return wildcard, self.costs.pcb_search_ns(scanned)

    def _lookup_hash(self, local_ip: int, local_port: int, remote_ip: int,
                     remote_port: int) -> Tuple[Optional[PCB], int]:
        cost = int(self.costs.pcb_hash_lookup_us * 1000)
        pcb = self._hash.get((local_ip, local_port, remote_ip, remote_port))
        if pcb is None:
            pcb = self._hash.get((local_ip, local_port, 0, 0))
            if pcb is None:
                pcb = self._hash.get((0, local_port, 0, 0))
            cost *= 2  # second probe for the wildcard bucket
        return pcb, cost

    # ------------------------------------------------------------------
    # Microbenchmark support (§3)
    # ------------------------------------------------------------------
    def search_cost_us(self, position: int) -> float:
        """Modelled cost of a search that examines *position* entries."""
        return self.costs.pcb_search_ns(position) / 1000.0
