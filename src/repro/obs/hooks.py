"""CPU job hook interface: the root of the observability pipeline.

The CPU model (:mod:`repro.sim.cpu`) reports each job's lifecycle to
the :class:`SimHooks` object on :attr:`CPU.hooks <repro.sim.cpu.CPU.
hooks>`.  Downstream sinks — the :class:`~repro.obs.observer.Observer`
that builds Chrome traces, test probes — subclass :class:`SimHooks`
and override only the callbacks they care about.

The default is *no hooks at all*: ``CPU.hooks`` is ``None`` and each
hook site is a single ``is not None`` test.  The event kernel has no
hook point, so installing hooks never changes which events a run
executes: an observed run and the same unobserved run take the same
path, inline CPU charges included.

This module is dependency-free on purpose, so :mod:`repro.obs` can
import it without loading the simulation kernel.
"""

from __future__ import annotations

from typing import Any

__all__ = ["SimHooks"]


class SimHooks:
    """Callbacks fired by the CPU model.

    All methods are no-ops in the base class; subclasses override a
    subset.  Hooks observe — they must not mutate simulator state, or
    determinism guarantees are void.

    Each callback receives the :class:`~repro.sim.cpu.CPU` and the
    :class:`~repro.sim.cpu.Job`, so a sink can read names, priorities
    and queue depths without the CPU paying to format them.
    """

    def on_job_start(self, now_ns: int, cpu: Any, job: Any) -> None:
        """A job got the CPU for the first time."""

    def on_job_preempt(self, now_ns: int, cpu: Any, job: Any) -> None:
        """The running job was preempted by a higher-priority arrival."""

    def on_job_resume(self, now_ns: int, cpu: Any, job: Any) -> None:
        """A previously preempted job got the CPU back."""

    def on_job_finish(self, now_ns: int, cpu: Any, job: Any) -> None:
        """The running job consumed all of its work."""
