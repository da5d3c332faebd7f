"""Command-line reproduction runner: ``python -m repro [table...]``.

Regenerates the paper's tables and figures and prints them next to the
published values.  With no arguments, everything is run; otherwise pass
any of: table1 table2 table3 table4 table5 table6 table7 pcb mbuf sun3
errors summary throughput profile calibration.

Observability subcommands (see :mod:`repro.obs` and the README's
"Observability" section):

* ``python -m repro trace <target> [--out FILE] [--jsonl FILE]
  [--flow FILE] [--size N] [--iterations N]`` — run one observed
  round-trip experiment and export a Chrome ``trace_event`` JSON (open
  it in ``chrome://tracing`` or https://ui.perfetto.dev), optionally a
  JSONL event stream, and optionally the per-connection flow-telemetry
  JSONL (``--flow`` also turns on causal lineage tracing).
* ``python -m repro metrics [target] [--size N] [--iterations N]
  [--format text|csv]`` — same run, but print the metrics/spans dump
  (plain text, or flat CSV for spreadsheets/pandas).
* ``python -m repro explain [target] [--size N] [--iterations N]
  [--rtt K] [--out FILE]`` — trace causal packet lineage through one
  run and render the K-th round trip as a per-layer waterfall whose
  rows sum exactly to the measured RTT (``--out`` writes the single
  RTT as a Chrome trace).  ``repro explain --diff A B`` compares two
  targets' attribution profiles and names the layer that ate the
  difference (targets are trace targets plus ``impaired``, a
  fixed-seed lossy link).
* ``python -m repro --list`` — enumerate every runnable section and
  trace target (used by CI).

Static analysis & determinism subcommands (see :mod:`repro.analysis`
and the README's "Static analysis & determinism checking" section):

* ``python -m repro lint [paths...] [--format text|json|github]`` —
  run the AST determinism/layering linter (defaults to the installed
  repro package); exits 1 on error-severity findings.  ``--rules``
  prints the rule catalog.  ``--format github`` emits workflow
  annotation commands for CI.
* ``python -m repro sanitize [paths...] [--format text|json|github]``
  — static sanitizer: mbuf ownership dataflow analysis (leaks on
  early-return/exception paths, double frees, use after handoff) plus
  the TCP state-machine exhaustiveness diff against the declared
  RFC 793 spec.  ``--table`` prints the extracted transition table;
  ``--rules`` the ownership rule catalog.  The runtime half is
  ``REPRO_SANITIZE=1`` (poison-on-free, allocation-site provenance,
  leak-at-quiesce audits, timer sanitizer).
* ``python -m repro racecheck [target] [--size N] [--iterations N]
  [--tiebreaks CSV]`` — re-run a trace target under perturbed
  same-timestamp event orderings and diff packet logs, RTT samples and
  conservation counters against the FIFO baseline; exits 1 on any
  ordering divergence or invariant violation.

Every table is computed in the process that prints it.  Within one
invocation a sweep is computed once and reused, as the paper reuses its
Table 1 ATM column as the baseline of Tables 4, 6 and 7.

Performance (see :mod:`repro.perf` and the README's "Performance"
section):

* ``python -m repro bench`` — print the exact work counters (events,
  CPU jobs, mbufs, cells, segments, ...) of six fixed runs as JSON.
  ``tests/test_perf_bench.py`` holds them equal to the committed
  ``benchmarks/counts.json``; ``python -m repro bench >
  benchmarks/counts.json`` rewrites it.

A usage error (unknown option, bad value, missing path) prints one line
and exits 2.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

from repro.core import paperdata
from repro.core.breakdown import breakdowns_from_results
from repro.core.errorstudy import run_error_study
from repro.core.experiment import PAPER_SIZES, run_sweep
from repro.core.microbench import (
    copy_checksum_bench,
    mbuf_alloc_bench,
    pcb_search_bench,
)
from repro.core.report import ascii_chart, format_table, pct_change
from repro.kern.config import ChecksumMode, KernelConfig
from repro.sim.engine import tiebreak_keyfn

ITER, WARM = 6, 2


@functools.cache
def _results(network="atm", config=None):
    """One sweep per (network, config), shared by every table."""
    return run_sweep(network, config, iterations=ITER, warmup=WARM)


def _sweep(network="atm", config=None):
    return {s: r.mean_rtt_us for s, r in _results(network, config).items()}


def _breakdowns():
    """Tables 2 and 3 are the span view of Table 1's ATM sweep."""
    return breakdowns_from_results(_results().values())


def table1() -> None:
    atm = _sweep()
    eth = _sweep("ethernet")
    rows = [(s, round(eth[s]), paperdata.TABLE1_ETHERNET_RTT[s],
             round(atm[s]), paperdata.TABLE1_ATM_RTT[s],
             round(pct_change(eth[s], atm[s])),
             paperdata.TABLE1_DECREASE_PCT[s]) for s in PAPER_SIZES]
    print(format_table(
        "Table 1: ATM vs Ethernet round-trip times (us)",
        ("size", "ether", "(paper)", "atm", "(paper)", "dec%", "(paper)"),
        rows))


def table2() -> None:
    tx, _ = _breakdowns()
    rows = []
    for t in tx:
        paper = dict(zip(paperdata.TABLE2_ROWS,
                         paperdata.TABLE2_TRANSMIT[t.size]))
        for name in ("user", "checksum", "mcopy", "segment", "ip", "atm",
                     "total"):
            rows.append((t.size, name, round(t.row(name), 1),
                         paper[name]))
    print(format_table("Table 2: transmit-side breakdown (us)",
                       ("size", "layer", "sim", "paper"), rows, width=10))


def table3() -> None:
    _, rx = _breakdowns()
    rows = []
    for r in rx:
        paper = dict(zip(paperdata.TABLE3_ROWS,
                         paperdata.TABLE3_RECEIVE[r.size]))
        for name in ("atm", "ipq", "ip", "checksum", "segment", "wakeup",
                     "user", "total"):
            rows.append((r.size, name, round(r.row(name), 1),
                         paper[name]))
    print(format_table("Table 3: receive-side breakdown (us)",
                       ("size", "layer", "sim", "paper"), rows, width=10))


def table4() -> None:
    on = _sweep()
    off = _sweep(config=KernelConfig(header_prediction=False))
    rows = [(s, round(off[s]), paperdata.TABLE4_NO_PREDICTION[s],
             round(on[s]), paperdata.TABLE4_PREDICTION[s],
             round(pct_change(off[s], on[s]), 1)) for s in PAPER_SIZES]
    print(format_table(
        "Table 4: header prediction on vs off (us)",
        ("size", "no-pred", "(paper)", "pred", "(paper)", "dec%"), rows))
    print()
    print(ascii_chart("Figure 1: Effects of Header Prediction",
                      PAPER_SIZES,
                      {"with prediction": [on[s] for s in PAPER_SIZES],
                       "without prediction": [off[s]
                                              for s in PAPER_SIZES]}))


def table5() -> None:
    points = copy_checksum_bench()
    rows = []
    for p in points:
        paper = paperdata.TABLE5_COPY_CHECKSUM[p.size]
        rows.append((p.size, round(p.ultrix_checksum), paper[0],
                     round(p.ultrix_bcopy), paper[1],
                     round(p.optimized_checksum), paper[3],
                     round(p.integrated), paper[4],
                     round(p.savings_when_integrated_pct), paper[5]))
    print(format_table(
        "Table 5: copy and checksum measurements (us)",
        ("size", "ultrix", "(p)", "bcopy", "(p)", "opt", "(p)", "integ",
         "(p)", "sav%", "(p)"), rows, width=8))
    print()
    print(ascii_chart(
        "Figure 2: Copy and Checksum Measurements (us)",
        [p.size for p in points],
        {"copy & ULTRIX cksum": [p.ultrix_total for p in points],
         "copy & optimized cksum": [p.ultrix_bcopy + p.optimized_checksum
                                    for p in points],
         "integrated copy & cksum": [p.integrated for p in points]}))


def table6() -> None:
    std = _sweep()
    integ = _sweep(config=KernelConfig(
        checksum_mode=ChecksumMode.INTEGRATED))
    rows = [(s, round(std[s]), round(integ[s]),
             paperdata.TABLE6_INTEGRATED[s],
             round(pct_change(std[s], integ[s]), 1),
             paperdata.TABLE6_SAVING_PCT[s]) for s in PAPER_SIZES]
    print(format_table(
        "Table 6: standard vs combined copy+checksum (us)",
        ("size", "standard", "combined", "(paper)", "sav%", "(paper)"),
        rows, width=10))


def table7() -> None:
    std = _sweep()
    off = _sweep(config=KernelConfig(checksum_mode=ChecksumMode.OFF))
    rows = [(s, round(std[s]), round(off[s]),
             paperdata.TABLE7_NO_CHECKSUM[s],
             round(pct_change(std[s], off[s]), 1),
             paperdata.TABLE7_SAVING_PCT[s]) for s in PAPER_SIZES]
    print(format_table(
        "Table 7: with and without the TCP checksum (us)",
        ("size", "cksum", "no-cksum", "(paper)", "sav%", "(paper)"),
        rows, width=10))


def pcb() -> None:
    points = pcb_search_bench()
    rows = [(p.entries, round(p.cost_us, 1)) for p in points]
    print(format_table(
        "PCB linear search (paper: 26us @ 20, 1280us @ 1000)",
        ("entries", "cost_us"), rows))


def mbuf() -> None:
    mean = mbuf_alloc_bench()
    print(f"mbuf allocate+free: {mean:.2f} us "
          f"(paper: just over 7 us)")


def sun3() -> None:
    from repro.checksum import (Bcopy, IntegratedCopyChecksum,
                                OptimizedChecksum)
    from repro.hw import decstation_5000_200, sun_3 as sun3_costs
    rows = []
    for machine, paper in ((sun3_costs(), paperdata.SUN3_1KB),
                           (decstation_5000_200(), paperdata.DEC_1KB)):
        rows.append((machine.name[:12],
                     round(OptimizedChecksum(machine).cost_us(1024)),
                     paper[0],
                     round(Bcopy(machine).cost_us(1024)), paper[1],
                     round(IntegratedCopyChecksum(machine).cost_us(1024)),
                     paper[2]))
    print(format_table("§4.1: 1 KB copy/checksum scaling",
                       ("machine", "cksum", "(p)", "copy", "(p)",
                        "comb", "(p)"), rows, width=9))


def throughput() -> None:
    from repro.core.report import format_table
    from repro.core.throughput import run_bulk_throughput
    rows = []
    for mode in ChecksumMode:
        r = run_bulk_throughput(total_bytes=300_000, checksum_mode=mode)
        rows.append((mode.value, round(r.goodput_mb_s, 2),
                     round(r.receiver_cpu_busy_frac * 100),
                     r.retransmits))
    print(format_table("Bulk TCP goodput over ATM (300 KB one-way)",
                       ("mode", "MB/s", "rx_cpu%", "rtx"), rows,
                       width=11))


def profile() -> None:
    from repro.core.experiment import RoundTripBenchmark
    from repro.core.profile import format_profile
    from repro.core.testbed import build_atm_pair
    for size in (80, 8000):
        tb = build_atm_pair()
        RoundTripBenchmark(tb, size=size, iterations=6, warmup=2).run()
        print(format_profile(tb.server,
                             f"receiver CPU profile, {size}-byte RPCs"))
        print()


def calibration() -> None:
    from repro.core.calibration import calibration_report
    print(calibration_report())


def summary() -> None:
    from repro.core.validation import validate_reproduction
    print(validate_reproduction().format())


def errors() -> None:
    rows = []
    for name, kwargs in (("noisy fiber", dict(p_link=0.15)),
                         ("flaky controller", dict(p_controller=0.15)),
                         ("gateway traffic", dict(p_gateway=0.15)),
                         ("clean local", dict())):
        r = run_error_study(size=1400, iterations=30, seed=99, **kwargs)
        rows.append((name, r.total_injected, r.caught_by_link_check,
                     r.caught_by_tcp_checksum, r.caught_by_application))
    print(format_table("§4.2: error detection by layer (30 RPCs)",
                       ("scenario", "injected", "link", "tcp", "app"),
                       rows, width=13))


SECTIONS = {
    "table1": table1, "table2": table2, "table3": table3,
    "table4": table4, "table5": table5, "table6": table6,
    "table7": table7, "pcb": pcb, "mbuf": mbuf, "sun3": sun3,
    "errors": errors, "summary": summary, "throughput": throughput,
    "profile": profile, "calibration": calibration,
}

#: Observable experiments for ``trace``/``metrics``: target name ->
#: (network, KernelConfig overrides).  Tables that are pure
#: microbenchmarks (table5, pcb, mbuf, sun3) have no packet timeline
#: and are deliberately absent.
TRACE_TARGETS = {
    "table1": ("atm", {}),
    "table2": ("atm", {}),
    "table3": ("atm", {}),
    "table4": ("atm", {"header_prediction": False}),
    "table6": ("atm", {"checksum_mode": ChecksumMode.INTEGRATED}),
    "table7": ("atm", {"checksum_mode": ChecksumMode.OFF}),
    "ethernet": ("ethernet", {}),
}


def _count(flag, value) -> int:
    """``int(value)`` for a size or count flag; ValueError below 1."""
    number = int(value)
    if number < 1:
        raise ValueError(f"{flag} must be at least 1, got {number}")
    return number


def _probability(flag, value) -> float:
    """``float(value)`` for a probability flag; ValueError outside [0, 1]."""
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"{flag} must lie in [0, 1], got {number}")
    return number


def _perturbation(flag, value) -> str:
    """One ``--tiebreaks`` item: a tie-break policy other than ``fifo``,
    which is the baseline every perturbation is compared against.
    SchedulingError for an unknown policy, ValueError for ``fifo``."""
    policy = value.strip()
    if tiebreak_keyfn(policy) is None:
        raise ValueError(f"{flag}: fifo is the baseline, not a perturbation")
    return policy


def _values(flag, value, parse) -> list:
    """Each comma-separated item of *value* through *parse*; ValueError
    when there is none, so a sweep always has a cell to run."""
    items = [parse(flag, x) for x in value.split(",") if x]
    if not items:
        raise ValueError(f"{flag} needs at least one value")
    return items


def _network(value) -> str:
    if value not in ("atm", "ethernet"):
        raise ValueError(f"unknown network {value!r}")
    return value


def _parse_obs_args(args, default_size=8000, default_iters=4):
    """Parse ``[target] [--out F] [--jsonl F] [--flow F] [--size N]
    [--iterations N] [--format FMT] [--rtt K]``."""
    opts = {"target": None, "out": None, "jsonl": None, "flow": None,
            "size": default_size, "iterations": default_iters,
            "format": "text", "rtt": 0}
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("--out", "--jsonl", "--flow", "--size",
                   "--iterations", "--format", "--rtt"):
            if i + 1 >= len(args):
                raise ValueError(f"{arg} needs a value")
            value = args[i + 1]
            key = arg[2:]
            if key in ("size", "iterations"):
                value = _count(arg, value)
            elif key == "rtt":
                value = int(value)
            opts[key] = value
            i += 2
        elif arg.startswith("-"):
            raise ValueError(f"unknown option {arg}")
        elif opts["target"] is None:
            opts["target"] = arg
            i += 1
        else:
            raise ValueError(f"unexpected argument {arg}")
    return opts


def _observed_run(target, size, iterations, lineage=False, flow=False):
    """Run one observed round-trip experiment; returns the observer."""
    from repro.core.experiment import run_round_trip
    from repro.obs import Observer

    network, overrides = TRACE_TARGETS[target]
    config = KernelConfig(**overrides) if overrides else None
    observer = Observer(lineage=lineage, flow=flow)
    result = run_round_trip(size=size, network=network, config=config,
                            iterations=iterations, warmup=1,
                            observer=observer)
    return observer, result


def cmd_trace(args) -> int:
    """``python -m repro trace <target> --out FILE [--jsonl FILE]``."""
    from repro.obs import write_chrome_trace, write_jsonl
    try:
        opts = _parse_obs_args(args)
    except ValueError as error:
        print(f"trace: {error}")
        return 2
    target = opts["target"] or "table2"
    if target not in TRACE_TARGETS:
        print(f"unknown trace target {target!r}")
        print(f"available: {' '.join(TRACE_TARGETS)}")
        return 2
    want_flow = bool(opts["flow"])
    observer, result = _observed_run(target, opts["size"],
                                     opts["iterations"],
                                     lineage=want_flow, flow=want_flow)
    out = opts["out"] or f"{target}.trace.json"
    n_events = write_chrome_trace(observer, out)
    print(f"trace {target}: size={result.size} "
          f"mean_rtt={result.mean_rtt_us:.1f}us; "
          f"{n_events} events -> {out} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    if opts["jsonl"]:
        n_lines = write_jsonl(observer, opts["jsonl"])
        print(f"{n_lines} JSONL records -> {opts['jsonl']}")
    if opts["flow"]:
        n_samples = observer.flow.write_jsonl(opts["flow"],
                                              measured_only=False)
        print(f"{n_samples} flow samples -> {opts['flow']}")
    return 0


def cmd_metrics(args) -> int:
    """``python -m repro metrics [target]`` — metrics dump (text/CSV)."""
    from repro.obs import metrics_csv, metrics_text
    try:
        opts = _parse_obs_args(args, default_size=1400)
    except ValueError as error:
        print(f"metrics: {error}")
        return 2
    target = opts["target"] or "table1"
    if target not in TRACE_TARGETS:
        print(f"unknown metrics target {target!r}")
        print(f"available: {' '.join(TRACE_TARGETS)}")
        return 2
    if opts["format"] not in ("text", "csv"):
        print(f"metrics: unknown format {opts['format']!r} "
              f"(want text or csv)")
        return 2
    observer, result = _observed_run(target, opts["size"],
                                     opts["iterations"])
    if opts["format"] == "csv":
        print(metrics_csv(observer))
        return 0
    print(f"# {target}: size={result.size} "
          f"mean_rtt={result.mean_rtt_us:.1f}us "
          f"iterations={result.iterations}")
    print(metrics_text(observer))
    return 0


def _traced_target(name, size, iterations):
    """Build the traced run behind an ``explain`` target name."""
    from repro.obs.explain import run_traced

    if name == "impaired":
        # A fixed-seed lossy ATM link: the canonical diff partner for
        # any clean baseline target.
        from repro.chaos import ImpairmentConfig, Impairments

        impairments = Impairments(ImpairmentConfig(seed=1994,
                                                   p_drop=0.15))
        return run_traced(size=size, network="atm",
                          iterations=iterations,
                          impairments=impairments, label=name)
    network, overrides = TRACE_TARGETS[name]
    config = KernelConfig(**overrides) if overrides else None
    return run_traced(size=size, network=network, config=config,
                      iterations=iterations, label=name)


def cmd_explain(args) -> int:
    """``python -m repro explain [target] [--rtt K] [--out FILE]`` or
    ``python -m repro explain --diff A B [--size N] ...``."""
    from repro.obs.explain import explain_rtt, format_diff, \
        write_rtt_trace

    diff_pair = None
    rest = []
    i = 0
    while i < len(args):
        if args[i] == "--diff":
            if i + 2 >= len(args):
                print("explain: --diff needs two target names")
                return 2
            diff_pair = (args[i + 1], args[i + 2])
            i += 3
        else:
            rest.append(args[i])
            i += 1
    try:
        opts = _parse_obs_args(rest, default_size=1400)
    except ValueError as error:
        print(f"explain: {error}")
        return 2
    known = list(TRACE_TARGETS) + ["impaired"]
    if diff_pair is not None:
        bad = [t for t in diff_pair if t not in known]
        if bad:
            print(f"unknown explain target(s): {' '.join(bad)}")
            print(f"available: {' '.join(known)}")
            return 2
        run_a = _traced_target(diff_pair[0], opts["size"],
                               opts["iterations"])
        run_b = _traced_target(diff_pair[1], opts["size"],
                               opts["iterations"])
        print(format_diff(run_a, run_b))
        return 0
    target = opts["target"] or "table1"
    if target not in known:
        print(f"unknown explain target {target!r}")
        print(f"available: {' '.join(known)}")
        return 2
    run = _traced_target(target, opts["size"], opts["iterations"])
    try:
        explanation = explain_rtt(run, index=opts["rtt"])
    except ValueError as error:
        print(f"explain: {error}")
        return 2
    print(explanation.format())
    if opts["out"]:
        n_events = write_rtt_trace(explanation, opts["out"])
        print(f"\n{n_events} trace events -> {opts['out']} "
              f"(open in ui.perfetto.dev)")
    return 0


def list_targets() -> int:
    """``python -m repro --list`` — machine-readable enumeration."""
    print("sections:", " ".join(SECTIONS))
    print("trace-targets:", " ".join(TRACE_TARGETS))
    return 0


FINDING_FORMATS = ("text", "json", "github")


def _parse_finding_args(tool, args, extra_flags=()):
    """Parse ``[paths...] [--format text|json|github]`` plus boolean
    *extra_flags*; returns (paths, fmt, flags) or None on usage error."""
    fmt = "text"
    paths, flags = [], set()
    i = 0
    while i < len(args):
        if args[i] == "--format":
            if i + 1 >= len(args) or args[i + 1] not in FINDING_FORMATS:
                print(f"{tool}: --format needs one of "
                      f"{'/'.join(FINDING_FORMATS)}")
                return None
            fmt = args[i + 1]
            i += 2
        elif args[i] in extra_flags:
            flags.add(args[i])
            i += 1
        elif args[i].startswith("-"):
            print(f"{tool}: unknown option {args[i]}")
            return None
        else:
            paths.append(args[i])
            i += 1
    if not paths:
        import repro
        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"{tool}: no such file or directory: {' '.join(missing)}")
        return None
    return paths, fmt, flags


def _render_findings(tool, findings, fmt, paths) -> int:
    """Print *findings* in *fmt*; exit status 1 on any error finding.

    ``json`` is the machine-readable interchange shared by lint and
    sanitize; ``github`` emits workflow annotation commands so CI runs
    mark up the diff."""
    import json

    from repro.analysis import Severity

    if fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    elif fmt == "github":
        for f in findings:
            kind = "error" if f.severity == Severity.ERROR else "warning"
            print(f"::{kind} file={f.path},line={f.line},"
                  f"col={f.col},title={f.rule}::{f.message}")
    else:
        for finding in findings:
            print(finding.format())
        errors = sum(1 for f in findings
                     if f.severity == Severity.ERROR)
        print(f"{tool}: {len(findings)} finding(s), {errors} error(s) "
              f"in {' '.join(paths)}")
    return 1 if any(f.severity == Severity.ERROR for f in findings) else 0


def cmd_lint(args) -> int:
    """``python -m repro lint [paths...] [--format text|json|github]``."""
    from repro.analysis import lint_paths, rule_catalog

    if "--rules" in args:
        print(rule_catalog())
        return 0
    parsed = _parse_finding_args("lint", args)
    if parsed is None:
        return 2
    paths, fmt, _ = parsed
    return _render_findings("lint", lint_paths(paths), fmt, paths)


def cmd_sanitize(args) -> int:
    """``python -m repro sanitize [paths...] [--format text|json|github]
    [--table] [--no-statemachine]``.

    Static half of the sanitizer: the mbuf ownership dataflow analysis
    over *paths* plus the TCP state-machine exhaustiveness diff against
    the declared RFC 793 spec.  (The runtime half is enabled with
    ``REPRO_SANITIZE=1``.)  ``--table`` prints the extracted transition
    table instead of checking."""
    from repro.analysis import (
        analyze_paths,
        check_state_machine,
        format_transition_table,
        ownership_rule_catalog,
    )

    if "--rules" in args:
        print(ownership_rule_catalog())
        return 0
    parsed = _parse_finding_args("sanitize", args,
                                 extra_flags=("--table",
                                              "--no-statemachine"))
    if parsed is None:
        return 2
    paths, fmt, flags = parsed
    if "--table" in flags:
        print(format_transition_table())
        return 0
    findings = list(analyze_paths(paths))
    if "--no-statemachine" not in flags:
        findings.extend(check_state_machine())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return _render_findings("sanitize", findings, fmt, paths)


def cmd_racecheck(args) -> int:
    """``python -m repro racecheck [target] [--size N] ...``."""
    from repro.analysis import DEFAULT_PERTURBATIONS, racecheck_round_trip
    from repro.sim import SchedulingError

    spec = ",".join(DEFAULT_PERTURBATIONS)
    rest = []
    i = 0
    while i < len(args):
        if args[i] == "--tiebreaks":
            if i + 1 >= len(args):
                print("racecheck: --tiebreaks needs a value")
                return 2
            spec = args[i + 1]
            i += 2
        else:
            rest.append(args[i])
            i += 1
    try:
        opts = _parse_obs_args(rest, default_size=1400, default_iters=4)
        tiebreaks = _values("--tiebreaks", spec, _perturbation)
    except (ValueError, SchedulingError) as error:
        print(f"racecheck: {error}")
        return 2
    target = opts["target"] or "table1"
    if target == "chaos":
        # The impaired workload: same determinism bar, faults injected.
        from repro.chaos import racecheck_chaos

        report = racecheck_chaos(size=opts["size"],
                                 iterations=opts["iterations"],
                                 perturbations=tiebreaks)
        print(report.format())
        return 0 if report.ok else 1
    if target not in TRACE_TARGETS:
        print(f"unknown racecheck target {target!r}")
        print(f"available: {' '.join(TRACE_TARGETS)} chaos")
        return 2
    network, overrides = TRACE_TARGETS[target]
    config = KernelConfig(**overrides) if overrides else None
    report = racecheck_round_trip(
        target, network=network, config=config, size=opts["size"],
        iterations=opts["iterations"], perturbations=tiebreaks)
    print(report.format())
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    """``python -m repro chaos [--quick] [--seed N] [--network NET]
    [--losses 0,0.01,..] [--sizes 200,1400,..] [--iterations N]``."""
    from repro.chaos import (
        DEFAULT_LOSSES,
        DEFAULT_SIZES,
        format_loss_sweep,
        run_loss_sweep,
    )

    seed, network = 1994, "atm"
    losses, sizes = list(DEFAULT_LOSSES), list(DEFAULT_SIZES)
    iterations, quick = 24, False
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("--seed", "--network", "--losses", "--sizes",
                   "--iterations"):
            if i + 1 >= len(args):
                print(f"chaos: {arg} needs a value")
                return 2
            value = args[i + 1]
            try:
                if arg == "--seed":
                    seed = int(value)
                elif arg == "--network":
                    network = _network(value)
                elif arg == "--losses":
                    losses = _values(arg, value, _probability)
                elif arg == "--sizes":
                    sizes = _values(arg, value, _count)
                else:
                    iterations = _count(arg, value)
            except ValueError:
                print(f"chaos: bad value for {arg}: {value!r}")
                return 2
            i += 2
        elif arg == "--quick":
            quick = True
            i += 1
        else:
            print(f"chaos: unknown argument {arg}")
            return 2
    if quick:
        # Smoke configuration for CI: one clean and one lossy column.
        losses, sizes, iterations = [0.0, 0.02], [1400], 12
    results = run_loss_sweep(losses=losses, sizes=sizes, seed=seed,
                             network=network, iterations=iterations,
                             warmup=2)
    print(format_loss_sweep(results))
    bad = sum(1 for r in results if not r.ok)
    print(f"chaos: {len(results)} cell(s), {bad} with violations")
    return 1 if bad else 0


def cmd_fuzz(args) -> int:
    """``python -m repro fuzz [--seeds N] [--packets N] [--budget SECS]
    [--replay CASE|DIR] [--save DIR] [--network NET] [--seed N]
    [--format text|json|github]``.

    Without ``--replay``: run a fixed-seed mutation campaign and
    report deduplicated, ddmin-minimized failures through the shared
    finding pipeline.  With ``--replay``: re-run one committed corpus
    case (or every ``*.json`` in a directory) against the current
    stack and fail if any no longer recovers or skips its expected
    drop accounting.
    """
    import glob

    from repro.analysis.findings import Finding, Severity
    from repro.chaos.triage import (campaign_findings, replay_case,
                                    run_fuzz_campaign)

    seeds, packets, budget = 8, 2000, None
    base_seed, network = 1994, "atm"
    replay, save_dir, fmt = None, None, "text"
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("--seeds", "--packets", "--budget", "--replay",
                   "--save", "--network", "--seed", "--format"):
            if i + 1 >= len(args):
                print(f"fuzz: {arg} needs a value")
                return 2
            value = args[i + 1]
            try:
                if arg == "--seeds":
                    seeds = _count(arg, value)
                elif arg == "--packets":
                    packets = int(value)
                    if packets < 0:
                        raise ValueError(f"{arg} must be at least 0")
                elif arg == "--budget":
                    budget = float(value)
                    if not 0.0 < budget < math.inf:
                        raise ValueError(f"{arg} must be finite and > 0")
                elif arg == "--replay":
                    replay = value
                elif arg == "--save":
                    save_dir = value
                elif arg == "--network":
                    network = _network(value)
                elif arg == "--seed":
                    base_seed = int(value)
                elif value in FINDING_FORMATS:
                    fmt = value
                else:
                    print(f"fuzz: --format must be one of "
                          f"{'/'.join(FINDING_FORMATS)}")
                    return 2
            except ValueError:
                print(f"fuzz: bad value for {arg}: {value!r}")
                return 2
            i += 2
        else:
            print(f"fuzz: unknown argument {arg}")
            return 2

    if replay is not None:
        if not os.path.exists(replay):
            print(f"fuzz: --replay: no such file or directory: {replay}")
            return 2
        cases = (sorted(glob.glob(os.path.join(replay, "*.json")))
                 if os.path.isdir(replay) else [replay])
        findings = []
        for path in cases:
            cell = replay_case(path)
            for violation in cell.violations:
                rule = violation.split(":", 1)[0]
                findings.append(Finding(
                    path=path, line=1, col=1, rule=f"fuzz-replay-{rule}",
                    severity=Severity.ERROR, message=violation))
            if fmt == "text":
                status = "ok" if cell.ok else "FAIL"
                print(f"fuzz replay {os.path.basename(path)}: {status} "
                      f"({cell.completed}/{cell.iterations} iterations)")
        return _render_findings("fuzz", findings, fmt, cases)

    log = print if fmt == "text" else (lambda _msg: None)
    campaign = run_fuzz_campaign(seeds=seeds, packets=packets,
                                 network=network, base_seed=base_seed,
                                 budget_secs=budget, log=log)
    if fmt == "text":
        print(f"fuzz: {campaign.cells} cell(s), "
              f"{campaign.mutated_packets} mutated packets "
              f"({campaign.packets_seen} seen), "
              f"{len(campaign.failures)} unique failure(s)")
    if save_dir is not None and campaign.failures:
        from repro.chaos.triage import save_case
        for failure in campaign.failures:
            path = save_case(failure, save_dir)
            if fmt == "text":
                print(f"fuzz: saved reproducer {path}")
    return _render_findings(
        "fuzz", campaign_findings(campaign, corpus_dir=save_dir),
        fmt, [f"campaign seed={base_seed} seeds={seeds}"])


def cmd_bench(args) -> int:
    """``python -m repro bench`` — the exact work counters of six fixed
    runs as indented, key-sorted JSON (``benchmarks/counts.json``)."""
    if args:
        print(f"bench: takes no arguments, got {' '.join(args)}")
        return 2
    import json

    from repro.perf.bench import collect

    print(json.dumps(collect(), indent=2, sort_keys=True))
    return 0


def main(argv) -> int:
    args = list(argv[1:])
    if "--list" in args:
        return list_targets()
    if args and args[0] == "trace":
        return cmd_trace(args[1:])
    if args and args[0] == "metrics":
        return cmd_metrics(args[1:])
    if args and args[0] == "explain":
        return cmd_explain(args[1:])
    if args and args[0] == "lint":
        return cmd_lint(args[1:])
    if args and args[0] == "sanitize":
        return cmd_sanitize(args[1:])
    if args and args[0] == "racecheck":
        return cmd_racecheck(args[1:])
    if args and args[0] == "bench":
        return cmd_bench(args[1:])
    if args and args[0] == "chaos":
        return cmd_chaos(args[1:])
    if args and args[0] == "fuzz":
        return cmd_fuzz(args[1:])
    names = args or list(SECTIONS)
    unknown = [n for n in names if n not in SECTIONS]
    if unknown:
        print(f"unknown section(s): {', '.join(unknown)}")
        print(f"available: {' '.join(SECTIONS)} trace metrics explain "
              f"lint sanitize racecheck bench chaos fuzz --list")
        return 2
    for i, name in enumerate(names):
        if i:
            print()
        # Elapsed wall time for the regeneration banner only: monotonic
        # so an NTP step cannot make it negative, and never fed into
        # the simulation.
        start = time.monotonic()  # repro: allow(wall-clock)
        SECTIONS[name]()
        elapsed = time.monotonic() - start  # repro: allow(wall-clock)
        print(f"[{name} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
