"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload rpc_small --seed 3 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
normalized to a nominal host speed (``hostspeed.py``); ``--trace 1`` runs a fixed window of RPCs untraced and then traced, and
prints the per-layer attribution (see README.md).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every RPC was answered with the expected bytes and every digest
and cross-check held.
"""

import time

#: Process start for ``setup_s``: taken before ``repro`` is imported.
PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One process, one thread: numpy (imported by the checksum code) would
# otherwise start a BLAS thread pool sized to the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from layers import LAYERS, Patcher, Tracer, wrap_app  # noqa: E402
from stats import block_stats  # noqa: E402
from workloads import (REFERENCE_SEED, WARMUP_RPCS, WORKLOADS, Loop,  # noqa: E402
                       run_window)

#: Environment switches of the simulator that would change what runs.
#: They are cleared so every run takes the default kernel on the pure
#: Python path (the compiled core is optional and not what is measured).
_CLEARED_ENV = ("REPRO_TIMER_WHEEL", "REPRO_SOFTNET_BATCH",
                "REPRO_SANITIZE")

#: Set-up is measured this many times per run; ``setup_s`` is the median.
SETUP_PROBES = 5

#: A single-connection run is cut into consecutive blocks of this many
#: RPCs, and each round of a multi-connection run into ``ROUND_BLOCKS``
#: blocks; each end-to-end figure is the median over the blocks.
BLOCK_RPCS = 200
ROUND_BLOCKS = 5

#: A multi-connection run measures at least this many rounds, so its
#: rate is a median of several.
MIN_ROUNDS = 3

END_TO_END = {
    "rpc_per_s": "1/s",
    "rpc_us_p50": "us",
    "rpc_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer counters beyond each layer's self time and call count.
COUNTERS = {
    "sim.engine.events_per_rpc": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.cancel_frac": "ratio",
    "sim.cpu.jobs_per_rpc": "count",
    "sim.cpu.preemptions_per_rpc": "count",
    "kern.ipq_drops_per_rpc": "count",
    "tcp.fast_path_frac": "ratio",
    "tcp.retransmits_per_rpc": "count",
    "tcp.conn_per_s": "1/s",
    "tcp.pcb.scanned_per_lookup": "count",
    "tcp.pcb.cache_hit_frac": "ratio",
    "mem.mbufs_per_rpc": "count",
    "mem.reuse_frac": "ratio",
    "atm.cells_per_rpc": "count",
    "checksum.bytes_per_rpc": "B",
    "bench.trace_overhead_frac": "ratio",
}

#: Layers whose self time is reported.  Each workload runs only some of
#: the wire-side layers (the ATM or the Ethernet driver, and the chaos
#: layer on ``lossy_ether`` only), and a layer a workload never runs
#: would read a self time of exactly 0 on every run; their self time is
#: therefore reported together as ``link``.  Call counts stay per layer.
LINK_LAYERS = ("atm", "ethernet", "chaos")
TIMED_LAYERS = ("sim.engine", "sim.cpu", "kern", "socket", "tcp", "tcp.pcb",
                "ip", "link", "mem", "checksum", "sim.trace", "bench.app")

PER_LAYER = dict(
    [(f"{layer}.self_us_per_rpc", "us") for layer in TIMED_LAYERS]
    + [(f"{layer}.calls_per_rpc", "count") for layer in LAYERS]
    + list(COUNTERS.items()))


def committed_digests() -> dict:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def purge_repro() -> None:
    """Forget every ``repro`` module so the next import runs afresh."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    gc.collect()


def snapshot(loop: Loop) -> dict:
    """Exact work counters of *loop*'s testbed, summed over both hosts."""
    hosts = loop.tb.hosts
    conns = [c.stats for c in loop.conns]
    return {
        "events": loop.tb.sim.events_executed,
        "jobs": sum(h.cpu.jobs_completed for h in hosts),
        "preemptions": sum(h.cpu.preemptions for h in hosts),
        "ipq_drops": sum(h.softnet.dropped_full for h in hosts),
        "fast_path_hits": sum(s.fast_path_hits for s in conns),
        "segs_received": sum(s.segs_received for s in conns),
        "retransmits": sum(s.retransmits for s in conns),
        "pcb_lookups": sum(h.tcp.pcbs.lookups for h in hosts),
        "pcb_cache_hits": sum(h.tcp.pcbs.cache_hits for h in hosts),
        "pcb_scanned": sum(h.tcp.pcbs.entries_scanned for h in hosts),
        "mbufs": sum(h.pool.allocated for h in hosts),
        "mbuf_reuses": sum(h.pool.reused for h in hosts),
        "cells": sum(getattr(h.interface.stats, "cells_sent", 0)
                     for h in hosts),
    }


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    """One run of one workload: its loops, checks and report lines."""

    def __init__(self, workload_name: str, seed: int, seconds: float):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        #: Loops still running; on an exception their unfinished RPCs
        #: count as failed.
        self.live = []
        self.errors = []
        self.lines = []

    # -- loops --------------------------------------------------------------
    def new_loop(self, seed: int, **kwargs) -> Loop:
        loop = Loop(self.workload, seed, **kwargs)
        self.live.append(loop)
        return loop

    def retire(self, loop: Loop) -> None:
        self.live.remove(loop)
        self.attempted += loop.attempted
        self.failed += loop.failed

    def abandon(self) -> None:
        """After an exception: every RPC of a live loop that has not
        completed counts as failed."""
        for loop in list(self.live):
            self.retire(loop)

    # -- set-up ---------------------------------------------------------------
    def measure_setup(self) -> list:
        """Normalized seconds from the start of a probe to its first
        checked reply.

        Probe 0 starts at process start, before ``import repro``; each
        later probe first drops every ``repro`` module, so it pays the
        import again, then builds the testbed, listens, connects and
        completes one RPC.  The probes use the reference seed, so every
        run sets up the same way (the first buffer large enough for the
        numpy checksum path, which imports numpy, comes at the same point).
        Each probe is followed by a reference computation that scales it
        to the nominal host speed.  Returns ``(wall s, normalized s)``
        pairs.
        """
        samples = []
        start = PROCESS_START
        clock = HostClock()
        for probe in range(SETUP_PROBES):
            if probe:
                purge_repro()
                start = time.perf_counter()
            importlib.import_module("repro")
            loop = self.new_loop(REFERENCE_SEED)
            first = loop.mark(1)
            loop.start(stop=lambda i: i >= 1, single=True)
            loop.tb.sim.run_until_triggered(first)
            wall = time.perf_counter() - start
            self.retire(loop)
            loop = first = None  # let the purge free this generation
            if not probe:
                clock.probe()  # warm the reference's code
            clock.probe()
            samples.append((wall, wall * hostspeed.REF_NS
                            / clock.ref_ns[-1]))
        return samples

    # -- the untraced end-to-end run ----------------------------------------
    def run_untraced(self) -> dict:
        setup = self.measure_setup()
        self.check_reference()
        # Read before the timed loop: that loop's length depends on the
        # simulator's speed, and so would the benchmark's own records.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        clock = HostClock()
        if self.workload.multi:
            figures, what = self._measure_rounds(clock)
        else:
            figures, what = self._measure_single(clock)
        (rates, blocks), (raw_rates, raw_blocks) = figures
        metrics = {
            "rpc_per_s": statistics.median(rates),
            "rpc_us_p50": statistics.median(b[1] for b in blocks) / 1000.0,
            "rpc_us_p90": statistics.median(b[2] for b in blocks) / 1000.0,
            "setup_s": statistics.median(norm for _wall, norm in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        self.lines.append(
            f"rpc_per_s, rpc_us_p50 and rpc_us_p90 are medians over {what}; "
            f"setup_s is the median of {len(setup)} probes "
            f"({', '.join(f'{norm:.3f}' for _wall, norm in setup)} s)")
        self.lines.append(
            f"normalized to a reference time of {hostspeed.REF_NS / 1e6:g} "
            f"ms; the reference took {clock.factor():.3f} times that "
            f"(median of {len(clock.ref_ns)} probes)")
        self.lines.append(
            f"unnormalized wall: rpc_per_s "
            f"{statistics.median(raw_rates):.1f}, p50 "
            f"{statistics.median(b[1] for b in raw_blocks) / 1000.0:.1f} us, "
            f"p90 {statistics.median(b[2] for b in raw_blocks) / 1000.0:.1f}"
            f" us, setup "
            f"{statistics.median(wall for wall, _norm in setup):.3f} s")
        return metrics

    @staticmethod
    def _blocks(clock: HostClock, loop: Loop, first: int, start_ns: int,
                count: int):
        """Normalized and wall ``(rate, p50, p90)`` blocks of *loop*'s
        RPCs from completion *first* on, measured from *start_ns*."""
        norm = clock.normalizer()
        walls = loop.wall_ns[first:]
        dones = loop.done_at_ns[first:]
        latencies = [norm(done) - norm(done - wall)
                     for wall, done in zip(walls, dones)]
        return (block_stats(latencies, [norm(d) for d in dones],
                            norm(start_ns), count),
                block_stats(walls, dones, start_ns, count))

    def _measure_single(self, clock: HostClock):
        """Closed loop on one connection until the time is up, cut into
        consecutive blocks of ``BLOCK_RPCS`` RPCs."""
        loop = self.new_loop(self.seed)
        loop.clock, loop.tick = clock.now, clock.tick
        sim = loop.tb.sim
        deadline = [None]

        def stop(_index):
            return (deadline[0] is not None
                    and time.perf_counter_ns() >= deadline[0])

        warm = loop.mark(WARMUP_RPCS)
        done = loop.start(stop)
        sim.run_until_triggered(warm)
        clock.probe()
        t0 = clock.now()
        deadline[0] = time.perf_counter_ns() + int(self.seconds * 1e9)
        sim.run_until_triggered(done)
        clock.probe()
        n = loop.completed - WARMUP_RPCS
        blocks, raw = self._blocks(clock, loop, WARMUP_RPCS, t0,
                                   max(1, n // BLOCK_RPCS))
        self.retire(loop)
        return (([b[0] for b in blocks], blocks), ([b[0] for b in raw], raw)),\
            f"{len(blocks)} blocks of about {n // len(blocks)} RPCs " \
            f"({n} in all)"

    def _measure_rounds(self, clock: HostClock):
        """Whole ramp/RPC/close rounds until the time is up.

        A round's rate counts its RPCs over the whole round, so the
        handshakes and closes weigh in; latencies come from blocks of
        the RPC phase.
        """
        end = time.perf_counter() + self.seconds
        rates, blocks, raw_rates, raw_blocks, conn_rates = [], [], [], [], []
        while True:
            loop = self.new_loop(self.seed)
            loop.clock, loop.tick = clock.now, clock.tick
            clock.probe()
            done = loop.start(stop=None)
            loop.tb.sim.run_until_triggered(done)
            clock.probe()
            finish = loop.rpc_phase_start_ns + loop.rpc_phase_wall_ns
            norm = clock.normalizer()
            rates.append(loop.completed * 1e9
                         / (norm(finish) - norm(loop.ramp_start_ns)))
            raw_rates.append(loop.completed * 1e9
                             / (finish - loop.ramp_start_ns))
            conn_rates.append(
                self.workload.connections * 1e9
                / (norm(loop.rpc_phase_start_ns) - norm(loop.ramp_start_ns)))
            normalized, raw = self._blocks(clock, loop, 0,
                                           loop.rpc_phase_start_ns,
                                           ROUND_BLOCKS)
            blocks.extend(normalized)
            raw_blocks.extend(raw)
            self.retire(loop)
            if time.perf_counter() >= end and len(rates) >= MIN_ROUNDS:
                break
        self.lines.append(f"conn_per_s: {statistics.median(conn_rates):.1f} "
                          f"normalized (median of {len(conn_rates)} ramps)")
        w = self.workload
        return ((rates, blocks), (raw_rates, raw_blocks)), \
            f"{len(rates)} rounds of {w.connections} handshakes, " \
            f"{w.window_rpcs} RPCs and {w.connections} closes (rate) " \
            f"and {len(blocks)} blocks of {w.window_rpcs // ROUND_BLOCKS} " \
            f"RPCs (latency)"

    # -- digest -----------------------------------------------------------------
    def check_reference(self, **loop_kwargs) -> Loop:
        """Run the reference window and compare its digest with the
        committed one; returns the finished loop."""
        loop = self.new_loop(REFERENCE_SEED, **loop_kwargs)
        run_window(loop, self.workload.window_rpcs)
        got = loop.digest()
        want = committed_digests().get(self.workload.name)
        self.lines.append(f"reference digest (seed {REFERENCE_SEED}): "
                          f"{got} committed {want}")
        if got != want:
            self.errors.append(
                f"simulated-behaviour digest {got} != committed {want}")
        self.retire(loop)
        return loop

    # -- the traced per-layer run ---------------------------------------------
    def run_traced(self) -> dict:
        importlib.import_module("repro")
        n = self.workload.window_rpcs
        base = self.new_loop(self.seed)
        marks = {}
        plain = run_window(
            base, n,
            on_window_start=lambda: marks.__setitem__(0, snapshot(base)),
            on_window_end=lambda: marks.__setitem__(1, snapshot(base)))
        base_counts = _delta(marks[0], marks[1])
        base_digest = base.digest()
        if self.workload.multi:
            conn_per_s = self.workload.connections * 1e9 / base.ramp_wall_ns
        else:
            conn_per_s = 1e9 / base.connect_wall_ns[0]
        self.retire(base)

        tracer = Tracer()

        def wrap(fn):
            return wrap_app(tracer, fn)

        def activate(on: bool, key: int, loop: Loop) -> None:
            marks[key] = snapshot(loop)
            tracer.active = on

        patcher = Patcher(tracer)
        patcher.install()
        try:
            loop = self.new_loop(self.seed, wrap_app=wrap)
            loop.on_rpc = lambda index: setattr(tracer, "rpc", index)
            traced = run_window(
                loop, n,
                on_window_start=lambda: activate(True, 2, loop),
                on_window_end=lambda: activate(False, 3, loop))
            counts = _delta(marks[2], marks[3])
            if loop.digest() != base_digest:
                self.errors.append("traced digest differs from untraced")
            moved = sorted(k for k in counts if counts[k] != base_counts[k])
            if moved:
                self.errors.append(f"wrappers changed counters: {moved}")
            self.cross_check(loop, tracer)
            self.retire(loop)
            tracer.reset_totals()
            ref = self.check_reference(wrap_app=wrap)
            self.cross_check(ref, tracer)
        finally:
            patcher.restore()
        if patcher.unwrapped:
            self.lines.append(f"unwrapped: {', '.join(patcher.unwrapped)}")
        self.write_trace(tracer)
        return self.layer_metrics(tracer, counts, n, plain, traced,
                                  conn_per_s)

    def cross_check(self, loop: Loop, tracer: Tracer) -> None:
        """Drain *loop*'s simulator, then hold each wrapper's call count
        against the layer's own counter."""
        loop.tb.sim.run()
        hosts = loop.tb.hosts
        calls = tracer.total_calls
        adapter = type(hosts[0].interface).__name__
        sent_attr = ("packets_sent" if adapter == "ForeTca100"
                     else "frames_sent")
        pairs = (
            ("CPU.run", calls["CPU.run"],
             sum(h.cpu.jobs_completed for h in hosts)),
            ("IPLayer.output", calls["IPLayer.output"],
             sum(h.ip.stats.sent for h in hosts)),
            (f"{adapter}.output", calls[f"{adapter}.output"],
             sum(getattr(h.interface.stats, sent_attr) for h in hosts)),
            ("MbufPool allocations", tracer.mbufs_seen,
             sum(h.pool.allocated for h in hosts)),
        )
        for name, seen, counter in pairs:
            if seen != counter:
                self.errors.append(
                    f"{name}: wrappers saw {seen}, layer counted {counter}")

    def layer_metrics(self, tracer: Tracer, counts: dict, n: int,
                      plain: dict, traced: dict, conn_per_s: float) -> dict:
        total_self = sum(tracer.self_ns.values())
        unknown = set(tracer.self_ns) - set(LAYERS)
        if unknown or total_self != tracer.root_ns:
            self.errors.append(
                f"layer self times {total_self} ns != root spans "
                f"{tracer.root_ns} ns (unknown layers {sorted(unknown)})")
        self_ns = dict(tracer.self_ns)
        self_ns["link"] = sum(self_ns.pop(layer, 0) for layer in LINK_LAYERS)
        metrics = {}
        for layer in TIMED_LAYERS:
            metrics[f"{layer}.self_us_per_rpc"] = \
                self_ns.get(layer, 0) / 1000.0 / n
        for layer in LAYERS:
            metrics[f"{layer}.calls_per_rpc"] = tracer.calls[layer] / n
        metrics.update({
            "sim.engine.events_per_rpc": counts["events"] / n,
            "sim.engine.events_per_s":
                plain["events"] * 1e9 / plain["wall_ns"],
            "sim.engine.cancel_frac": _ratio(
                tracer.name_calls["ScheduledCall.cancel"],
                tracer.name_calls["Simulator.schedule"]),
            "sim.cpu.jobs_per_rpc": counts["jobs"] / n,
            "sim.cpu.preemptions_per_rpc": counts["preemptions"] / n,
            "kern.ipq_drops_per_rpc": counts["ipq_drops"] / n,
            "tcp.fast_path_frac": _ratio(counts["fast_path_hits"],
                                         counts["segs_received"]),
            "tcp.retransmits_per_rpc": counts["retransmits"] / n,
            "tcp.conn_per_s": conn_per_s,
            "tcp.pcb.scanned_per_lookup": _ratio(counts["pcb_scanned"],
                                                 counts["pcb_lookups"]),
            "tcp.pcb.cache_hit_frac": _ratio(counts["pcb_cache_hits"],
                                             counts["pcb_lookups"]),
            "mem.mbufs_per_rpc": counts["mbufs"] / n,
            "mem.reuse_frac": _ratio(counts["mbuf_reuses"], counts["mbufs"]),
            "atm.cells_per_rpc": counts["cells"] / n,
            "checksum.bytes_per_rpc": tracer.checksum_bytes / n,
            "bench.trace_overhead_frac":
                traced["wall_ns"] / plain["wall_ns"] - 1.0,
        })
        self.layer_table(tracer, n)
        return metrics

    def layer_table(self, tracer: Tracer, n: int) -> None:
        root = tracer.root_ns or 1
        self.lines.append(
            f"per-layer wall self time over {n} RPCs "
            f"({tracer.root_spans} root spans, {root / 1e6:.1f} ms):")
        self.lines.append(f"  {'layer':<12} {'us/RPC':>9} {'share':>7} "
                          f"{'calls/RPC':>10}")
        for layer in LAYERS:
            ns = tracer.self_ns[layer]
            self.lines.append(
                f"  {layer:<12} {ns / 1000.0 / n:9.2f} {ns / root:7.1%} "
                f"{tracer.calls[layer] / n:10.1f}")
        share = {layer: tracer.self_ns[layer] / root for layer in LAYERS}
        kernel = share.pop("sim.engine") + share.pop("sim.cpu")
        data = share["atm"] + share["checksum"] + share["mem"]
        other = max(share, key=share.get)
        self.lines.append(
            f"  engine+cpu share {kernel:.1%}; atm+checksum+mem share "
            f"{data:.1%}; largest other layer {other} {share[other]:.1%}")

    def write_trace(self, tracer: Tracer) -> None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{self.workload.name}-seed{self.seed}.trace.json"
        tracer.write_chrome_trace(path)
        self.lines.append(f"chrome trace: {path.relative_to(ROOT)} "
                          f"({len(tracer.spans)} spans kept, "
                          f"{tracer.spans_dropped} not kept)")

    # -- report -----------------------------------------------------------------
    def stamp(self) -> dict:
        from repro.perf import native

        fields = {k: getattr(v, "value", v) for k, v in
                  dataclasses.asdict(self.workload.kernel_config()).items()}
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "revision": git_revision(),
            "python": sys.version.split()[0],
            "path": "native" if native.NATIVE_IN_USE else "pure",
            "native_available": native.NATIVE_AVAILABLE,
            "kernel_config": fields,
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_NATIVE"] = "0"
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    except Exception:
        traceback.print_exc()
        bench.abandon()
        bench.errors.append("the run raised")
        metrics = {}
    units = PER_LAYER if args.trace else END_TO_END
    try:
        stamp = bench.stamp()
    except Exception as error:  # repro itself failed to import
        stamp = {"workload": args.workload, "seed": args.seed,
                 "error": repr(error)}
    print("# " + json.dumps(stamp, sort_keys=True))
    for line in bench.lines:
        print("# " + line)
    for error in bench.errors:
        print("# ERROR " + error)
    correct = not bench.errors and bench.failed == 0
    print(f"# rpc_failed_frac: {bench.failed}/{bench.attempted}")
    for name, value in metrics.items():
        print(f"# {name:<32} {value:14.6g} {units[name]}")
    if not bench.attempted:
        return 1  # no RPC was tried: there is no result to report
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
