"""CPU cycles profile: where a host's processor time actually goes.

Complements the latency spans: while Tables 2/3 decompose the *critical
path*, this profile decomposes *CPU consumption* per host (the Kay &
Pasquale-style processing-time analysis the paper cites).  Labels come
from the CPU model's per-job accounting and are grouped into the
categories the 1990s protocol-processing literature argued about:
data-touching (copies, checksums) vs protocol logic vs driver vs
scheduling overhead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.engine import to_us

__all__ = ["CATEGORY_PATTERNS", "profile_host", "format_profile"]

#: Ordered (category, substring-patterns) mapping; first match wins.
CATEGORY_PATTERNS: List[Tuple[str, Tuple[str, ...]]] = [
    ("checksum", ("cksum",)),
    ("copies", ("copyin", "copyout", "mcopy", "copy")),
    ("tcp protocol", ("tcp", "pcb")),
    ("udp protocol", ("udp",)),
    ("ip", ("ip_",)),
    ("driver", ("atm", "ether", "intr")),
    ("scheduling", ("softint", "wakeup", "cswitch", "syscall")),
]


def categorize(label: str) -> str:
    for category, patterns in CATEGORY_PATTERNS:
        if any(p in label for p in patterns):
            return category
    return "other"


def profile_host(host) -> Dict[str, float]:
    """CPU microseconds per category for one host.

    An observer publishes each category as a ``cpu.us.<category>``
    gauge (:meth:`repro.obs.observer.Observer.collect`).
    """
    out: Dict[str, float] = {}
    for label, busy_ns in host.cpu.busy_by_label.items():
        category = categorize(label)
        out[category] = out.get(category, 0.0) + to_us(busy_ns)
    return out


def format_profile(host, title: str = "") -> str:
    """A one-host cycles-profile table, largest categories first."""
    profile = profile_host(host)
    total = sum(profile.values()) or 1.0
    lines = [title or f"CPU profile: {host.name}"]
    lines.append("-" * 44)
    for category, usec in sorted(profile.items(), key=lambda kv: -kv[1]):
        share = 100.0 * usec / total
        bar = "#" * int(round(share / 2.5))
        lines.append(f"{category:>14} {usec:>10.0f}us {share:5.1f}% {bar}")
    lines.append(f"{'total busy':>14} {total:>10.0f}us")
    return "\n".join(lines)
