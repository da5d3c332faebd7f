"""Testbed builders: pairs of hosts on a private network.

The paper's setup (§1.1-1.2): two DECstation 5000/200s, otherwise idle,
on a switchless private ATM network — or on Ethernet for the Table 1
comparison.
"""

from __future__ import annotations

from typing import Optional

from repro.atm.adapter import AtmLink, ForeTca100
from repro.ethernet.adapter import EthernetLink, LanceEthernet
from repro.hw.costs import MachineCosts
from repro.kern.config import KernelConfig
from repro.kern.host import Host
from repro.sim.engine import Simulator

__all__ = ["Testbed", "build_pair", "build_atm_pair", "build_ethernet_pair"]


class Testbed:
    """Two hosts and the link between them."""

    def __init__(self, sim: Simulator, client: Host, server: Host, link):
        self.sim = sim
        self.client = client
        self.server = server
        self.link = link
        #: The attached repro.obs.Observer, if any (set by attach()).
        self.observer = None

    @property
    def hosts(self):
        return (self.client, self.server)

    def __repr__(self) -> str:
        return (f"<Testbed {type(self.link).__name__} "
                f"{self.client.name}<->{self.server.name}>")


def _make_pair(config: Optional[KernelConfig],
               costs: Optional[MachineCosts],
               tiebreak: Optional[str] = None):
    sim = Simulator(tiebreak=tiebreak)
    client = Host(sim, "client", "10.0.0.1", costs=costs, config=config)
    server = Host(sim, "server", "10.0.0.2", costs=costs, config=config)
    return sim, client, server


def build_atm_pair(config: Optional[KernelConfig] = None,
                   costs: Optional[MachineCosts] = None,
                   bandwidth_bps: int = 140_000_000,
                   prop_delay_ns: int = 500,
                   observer=None,
                   tiebreak: Optional[str] = None,
                   impairments=None) -> Testbed:
    """Two workstations with FORE TCA-100s on a private fiber.

    With *observer* (a :class:`repro.obs.Observer`), the full
    observability pipeline — CPU hooks, metrics, span/packet sinks —
    is wired in before anything runs; without it the testbed is
    unobserved and byte-identical to the seed.  *tiebreak* perturbs the
    simulator's same-timestamp event ordering (race detection only; see
    :mod:`repro.analysis.racecheck`).  *impairments* (a
    :class:`repro.chaos.Impairments`, duck-typed to avoid the import)
    interposes on the wire; ``None`` leaves the path untouched.
    """
    sim, client, server = _make_pair(config, costs, tiebreak)
    link = AtmLink(sim, bandwidth_bps=bandwidth_bps,
                   prop_delay_ns=prop_delay_ns)
    link.attach(ForeTca100(client))
    link.attach(ForeTca100(server))
    testbed = Testbed(sim, client, server, link)
    if observer is not None:
        observer.attach(testbed)
    if impairments is not None:
        impairments.attach(testbed)
    return testbed


def build_ethernet_pair(config: Optional[KernelConfig] = None,
                        costs: Optional[MachineCosts] = None,
                        bandwidth_bps: int = 10_000_000,
                        prop_delay_ns: int = 1000,
                        observer=None,
                        tiebreak: Optional[str] = None,
                        impairments=None) -> Testbed:
    """Two workstations on a private 10 Mb/s Ethernet.

    *observer*, *tiebreak* and *impairments* work as in
    :func:`build_atm_pair`.
    """
    sim, client, server = _make_pair(config, costs, tiebreak)
    link = EthernetLink(sim, bandwidth_bps=bandwidth_bps,
                        prop_delay_ns=prop_delay_ns)
    link.attach(LanceEthernet(client))
    link.attach(LanceEthernet(server))
    testbed = Testbed(sim, client, server, link)
    if observer is not None:
        observer.attach(testbed)
    if impairments is not None:
        impairments.attach(testbed)
    return testbed


def build_pair(network: str, **kwargs) -> Testbed:
    """The testbed for *network*, ``"atm"`` or ``"ethernet"``.

    Keyword arguments go to :func:`build_atm_pair` or
    :func:`build_ethernet_pair`; any other network name raises
    ``ValueError``.
    """
    if network == "atm":
        return build_atm_pair(**kwargs)
    if network == "ethernet":
        return build_ethernet_pair(**kwargs)
    raise ValueError(f"unknown network {network!r}")
