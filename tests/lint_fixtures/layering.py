# repro: module(repro.tcp.fake)
"""Fixture: imports crossing layer boundaries."""
import repro.atm
from repro.ethernet.adapter import LanceEthernet
from repro.obs import Observer

from repro.net.headers import TCPFlags
from repro.sim.engine import us
import repro._native
from repro._native import raw_sum
