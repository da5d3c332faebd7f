"""Datagram sockets on top of the UDP layer."""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.sim.cpu import Priority
from repro.sim.engine import us
from repro.udp.layer import UDP_HEADER_LEN

__all__ = ["UDPSocket"]


class UDPSocket:
    """A minimal SOCK_DGRAM socket: bind / sendto / recvfrom."""

    def __init__(self, host, port: Optional[int] = None):
        self.host = host
        self.port = host.udp.bind(port)
        self.closed = False

    @property
    def _channel(self):
        return ("udp", self.host.name, self.port)

    def sendto(self, payload: bytes, dst_ip: int,
               dst_port: int) -> Generator:
        """One sendto system call: copyin + udp_output."""
        if self.closed:
            raise ValueError("socket closed")
        costs = self.host.costs
        cpu = self.host.cpu
        job = cpu.run(us(costs.syscall_entry_us), Priority.KERNEL,
                      "syscall entry", wait=True)
        if job is not None:
            yield job
        copy_cost = (us(costs.sosend_fixed_us)
                     + costs.copy_user_mbuf.ns(len(payload)))
        job = cpu.run(copy_cost, Priority.KERNEL, "udp copyin", wait=True)
        if job is not None:
            yield job
        ev = self.host.splnet.acquire(wait=True)
        if ev is not None:
            yield ev
        try:
            yield from self.host.udp.output(self.port, dst_ip, dst_port,
                                            payload, Priority.KERNEL)
        finally:
            self.host.splnet.release()
        job = cpu.run(us(costs.syscall_exit_us), Priority.KERNEL,
                      "syscall exit", wait=True)
        if job is not None:
            yield job

    def recvfrom(self) -> Generator:
        """Block until a datagram arrives; returns
        ``(payload, src_ip, src_port)``."""
        if self.closed:
            raise ValueError("socket closed")
        costs = self.host.costs
        cpu = self.host.cpu
        job = cpu.run(us(costs.syscall_entry_us), Priority.KERNEL,
                      "syscall entry", wait=True)
        if job is not None:
            yield job
        queue = self.host.udp.queue_for(self.port)
        while not queue:
            yield from self.host.scheduler.sleep(self._channel,
                                                 span="rx.wakeup")
        payload, src_ip, src_port = queue.popleft()
        copy_cost = (us(costs.soreceive_fixed_us)
                     + costs.copy_user_mbuf.ns(len(payload)))
        job = cpu.run(copy_cost, Priority.KERNEL, "udp copyout", wait=True)
        if job is not None:
            yield job
        job = cpu.run(us(costs.syscall_exit_us), Priority.KERNEL,
                      "syscall exit", wait=True)
        if job is not None:
            yield job
        return payload, src_ip, src_port

    def close(self) -> None:
        if not self.closed:
            self.host.udp.unbind(self.port)
            self.closed = True
