"""Static analysis and determinism checking for the reproduction.

Two halves (see also the README's "Static analysis & determinism
checking" section):

* :mod:`repro.analysis.linter` / :mod:`repro.analysis.rules` — an
  AST-based determinism/layering linter with a pluggable rule registry
  and ``# repro: allow(<rule>)`` suppression pragmas (``repro lint``).
* :mod:`repro.analysis.racecheck` / :mod:`repro.analysis.invariants` —
  a dynamic race detector that perturbs the event queue's
  same-timestamp tie-break and diffs observable results, plus the
  conservation audits run after each checked run (``repro racecheck``).
* :mod:`repro.analysis.ownership` / :mod:`repro.analysis.statemachine`
  — the mbuf ownership dataflow analyzer and the TCP state-machine
  exhaustiveness checker behind ``repro sanitize`` (their runtime
  counterpart lives in :mod:`repro.mem.sanitize`).
"""

from repro.analysis.findings import Finding, Severity, parse_pragmas
from repro.analysis.invariants import (
    check_ipq_conservation,
    check_mbuf_conservation,
    check_timer_sanity,
)
from repro.analysis.linter import Linter, lint_paths, rule_catalog
from repro.analysis.ownership import (
    OWNERSHIP_RULES,
    OwnershipAnalyzer,
    analyze_paths,
    ownership_rule_catalog,
)
from repro.analysis.statemachine import (
    StateMachineChecker,
    check_state_machine,
    format_transition_table,
)
from repro.analysis.racecheck import (
    DEFAULT_PERTURBATIONS,
    Divergence,
    RaceReport,
    RunDigest,
    check_scenario,
    compare_digests,
    digest_round_trip,
    racecheck_round_trip,
)
from repro.analysis.rules import RULES, LintContext

__all__ = [
    "Finding", "Severity", "parse_pragmas",
    "check_ipq_conservation",
    "check_mbuf_conservation", "check_timer_sanity",
    "Linter", "lint_paths", "rule_catalog", "RULES", "LintContext",
    "OWNERSHIP_RULES", "OwnershipAnalyzer", "analyze_paths",
    "ownership_rule_catalog",
    "StateMachineChecker", "check_state_machine",
    "format_transition_table",
    "DEFAULT_PERTURBATIONS", "Divergence", "RaceReport", "RunDigest",
    "check_scenario", "compare_digests", "digest_round_trip",
    "racecheck_round_trip",
]
