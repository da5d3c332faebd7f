"""The linter's rule registry.

Rules are small AST checks registered in :data:`RULES` via the
:func:`rule` decorator; each receives a :class:`LintContext` (parsed
tree, parent links, logical module name, import alias map) and yields
:class:`~repro.analysis.findings.Finding` objects.  Three families ship:

* **Determinism** — wall-clock reads, unseeded randomness, iteration
  over unordered containers that feeds the event queue, float
  arithmetic on the engine's integer-nanosecond timestamps.  These
  protect the property every reproduced table rests on: two runs of
  the same model produce byte-identical event streams.
* **Simulator contract** — no re-entrant ``sim.run()`` from stack code,
  no negative ``schedule()`` delays, and observability calls must use
  the zero-overhead ``is not None`` guard pattern from :mod:`repro.obs`.
* **Layering** — the import DAG (e.g. ``repro.tcp`` must not import
  ``repro.atm``/``repro.ethernet``; ``repro.sim`` imports nothing but
  itself) and the rule that magic cycle/cost constants live only in
  ``repro.hw.costs``.

Scope: a rule declares a *zone* — ``"all"`` (every linted file) or
``"det"`` (the deterministic heart of the simulator:
``repro.sim|kern|tcp|ip|atm|ethernet``).  ``"stack"`` is the det zone
minus ``repro.sim`` itself (for rules about *clients* of the engine).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.findings import Finding, Severity

__all__ = ["RULES", "LintContext", "rule", "DET_ZONE_PACKAGES"]

#: Sub-packages forming the deterministic zone.
DET_ZONE_PACKAGES = ("sim", "kern", "tcp", "ip", "atm", "ethernet")


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
class LintContext:
    """Everything a rule needs about one parsed source file."""

    def __init__(self, path: str, source: str, tree: ast.AST,
                 module: Optional[str]):
        self.path = path
        self.source = source
        self.tree = tree
        #: Logical dotted module name ('repro.sim.engine'), or None when
        #: the file lies outside any package (plain scripts).
        self.module = module
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        #: Local name -> canonical dotted origin, from this file's
        #: imports ('mono' -> 'time.monotonic', 't' -> 'time').
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = \
                        alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    # -- module zone helpers ------------------------------------------
    @property
    def package(self) -> Optional[str]:
        """Second segment of the module ('sim' for repro.sim.engine)."""
        if self.module is None:
            return None
        parts = self.module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]

    def in_det_zone(self) -> bool:
        return self.package in DET_ZONE_PACKAGES

    def in_stack_zone(self) -> bool:
        return self.in_det_zone() and self.package != "sim"

    # -- AST helpers ---------------------------------------------------
    def dotted(self, node: ast.AST) -> Optional[str]:
        """'a.b.c' for a Name/Attribute chain, else None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolved(self, node: ast.AST) -> Optional[str]:
        """Dotted chain with the leading name mapped through imports."""
        dotted = self.dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    def enclosing_ifs(self, node: ast.AST) -> Iterator[ast.If]:
        """Each ancestor If whose *body* branch contains *node*."""
        child: ast.AST = node
        parent = self.parents.get(child)
        while parent is not None:
            if isinstance(parent, ast.If):
                in_body = any(child is stmt for stmt in parent.body)
                if in_body:
                    yield parent
            child = parent
            parent = self.parents.get(child)

    def finding(self, node: ast.AST, rule_id: str, severity: str,
                message: str) -> Finding:
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       rule=rule_id, severity=severity, message=message)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    severity: str
    zone: str  # 'all' | 'det' | 'stack'
    doc: str
    check: Callable[["LintContext"], Iterable[Finding]]

    def applies(self, ctx: LintContext) -> bool:
        if self.zone == "all":
            return True
        if self.zone == "det":
            return ctx.in_det_zone()
        if self.zone == "stack":
            return ctx.in_stack_zone()
        raise ValueError(f"unknown zone {self.zone!r}")


RULES: Dict[str, RuleSpec] = {}


_RuleFn = Callable[[LintContext], Iterable[Finding]]


def rule(rule_id: str, severity: str, zone: str,
         doc: str) -> Callable[[_RuleFn], _RuleFn]:
    """Register a check function under *rule_id*."""
    def decorator(fn: _RuleFn) -> _RuleFn:
        RULES[rule_id] = RuleSpec(rule_id, severity, zone, doc, fn)
        return fn
    return decorator


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "os.times",
}


@rule("wall-clock", Severity.ERROR, "all",
      "Host wall/CPU clock read; simulated code must take time from "
      "Simulator.now / ClockCard, and reporting code should prefer "
      "time.monotonic() with an explicit allow pragma.")
def check_wall_clock(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.resolved(node.func)
        if target in _WALL_CLOCK:
            yield ctx.finding(
                node, "wall-clock", Severity.ERROR,
                f"call to {target}() reads the host clock; simulated "
                f"time must come from Simulator.now (pragma-annotate "
                f"deliberate uses in reporting code)")


_RANDOM_SOURCES = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}


@rule("unseeded-random", Severity.ERROR, "det",
      "Unseeded/global randomness inside the deterministic zone; use a "
      "seeded random.Random(seed) instance threaded from configuration.")
def check_unseeded_random(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.resolved(node.func)
        if target is None:
            continue
        if target in _RANDOM_SOURCES or target.startswith("secrets."):
            yield ctx.finding(
                node, "unseeded-random", Severity.ERROR,
                f"{target}() is a non-reproducible entropy source")
        elif target == "random.Random":
            if not node.args and not node.keywords:
                yield ctx.finding(
                    node, "unseeded-random", Severity.ERROR,
                    "random.Random() without a seed is non-reproducible")
        elif target.startswith("random.") and target.count(".") == 1:
            yield ctx.finding(
                node, "unseeded-random", Severity.ERROR,
                f"module-level {target}() uses the global RNG; use a "
                f"seeded random.Random(seed) instance")


def _is_unordered_iterable(ctx: LintContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        target = ctx.resolved(node.func)
        if target in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("keys", "values", "items"):
            return True
    return False


def _schedule_calls(ctx: LintContext,
                    body: List[ast.stmt]) -> Iterator[ast.Call]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("schedule", "timeout", "process"):
                yield node


@rule("unordered-iteration", Severity.ERROR, "det",
      "Loop over a set or dict view whose body schedules work; Python "
      "sets hash-order their elements, so the emitted event sequence "
      "is not stable across runs/versions.  Sort first, or iterate an "
      "ordered container.")
def check_unordered_iteration(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.For):
            continue
        if not _is_unordered_iterable(ctx, node.iter):
            continue
        for call in _schedule_calls(ctx, node.body):
            yield ctx.finding(
                node, "unordered-iteration", Severity.ERROR,
                f"iterating an unordered container feeds "
                f".{call.func.attr}() at line {call.lineno}; event "
                f"order would depend on hash seeds")
            break


_FLOAT_WRAPPERS = ("int", "round", "us")


def _has_float_arith(ctx: LintContext, node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        target = ctx.resolved(node.func)
        if target is not None and \
                target.split(".")[-1] in _FLOAT_WRAPPERS:
            return False  # explicitly converted back to int
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return any(_has_float_arith(ctx, child)
               for child in ast.iter_child_nodes(node))


@rule("float-timestamp", Severity.ERROR, "det",
      "Float arithmetic in a schedule()/timeout() delay; engine "
      "timestamps are integer nanoseconds and float rounding is "
      "platform-sensitive.  Wrap with us()/int()/round().")
def check_float_timestamp(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if not isinstance(node.func, ast.Attribute) or \
                node.func.attr not in ("schedule", "timeout"):
            continue
        delay = node.args[0]
        if _has_float_arith(ctx, delay):
            yield ctx.finding(
                delay, "float-timestamp", Severity.ERROR,
                f"delay expression of .{node.func.attr}() contains "
                f"float arithmetic; convert with us()/int()/round() "
                f"before scheduling")


# ----------------------------------------------------------------------
# Simulator-contract rules
# ----------------------------------------------------------------------
@rule("nested-run", Severity.ERROR, "stack",
      "sim.run()/step() from inside stack code re-enters the event "
      "loop; only top-level drivers (repro.core, tests) may run it.")
def check_nested_run(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or \
                func.attr not in ("run", "step", "run_until_triggered"):
            continue
        receiver = ctx.dotted(func.value)
        if receiver is not None and receiver.split(".")[-1] == "sim":
            yield ctx.finding(
                node, "nested-run", Severity.ERROR,
                f"{receiver}.{func.attr}() re-enters the event loop "
                f"from stack code; yield events instead")


@rule("negative-delay", Severity.ERROR, "all",
      "schedule() with a literal negative delay always raises "
      "SchedulingError at runtime.")
def check_negative_delay(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if not isinstance(node.func, ast.Attribute) or \
                node.func.attr != "schedule":
            continue
        delay = node.args[0]
        if isinstance(delay, ast.UnaryOp) and \
                isinstance(delay.op, ast.USub) and \
                isinstance(delay.operand, ast.Constant) and \
                isinstance(delay.operand.value, (int, float)):
            yield ctx.finding(
                delay, "negative-delay", Severity.ERROR,
                "schedule() delay is a negative literal; events cannot "
                "be scheduled into the past")


_HOOK_METHODS = {"inc", "observe", "set_max"}


def _guard_names(test: ast.expr, ctx: LintContext) -> Set[str]:
    """Dotted names asserted non-None by an if-test."""
    names: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            names |= _guard_names(value, ctx)
        return names
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and \
            isinstance(test.ops[0], ast.IsNot) and \
            isinstance(test.comparators[0], ast.Constant) and \
            test.comparators[0].value is None:
        dotted = ctx.dotted(test.left)
        if dotted is not None:
            names.add(dotted)
    return names


@rule("unguarded-hook", Severity.ERROR, "det",
      "Observability call (x.hooks.on_*/x.metrics.inc|observe|set_max) "
      "outside an `if x is not None:` guard; the zero-overhead contract "
      "of repro.obs requires every hook site to pay only one None test "
      "when unobserved.")
def check_unguarded_hook(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        receiver = ctx.dotted(func.value)
        if receiver is None:
            continue
        owner = receiver.split(".")[-1]
        is_hook = owner == "hooks" and func.attr.startswith("on_")
        is_metric = owner == "metrics" and func.attr in _HOOK_METHODS
        if not (is_hook or is_metric):
            continue
        guarded = any(receiver in _guard_names(if_node.test, ctx)
                      for if_node in ctx.enclosing_ifs(node))
        if not guarded:
            yield ctx.finding(
                node, "unguarded-hook", Severity.ERROR,
                f"{receiver}.{func.attr}() is not inside an "
                f"`if {receiver} is not None:` guard; unobserved runs "
                f"must stay on the zero-overhead path")


# ----------------------------------------------------------------------
# Layering rules
# ----------------------------------------------------------------------
#: Per-package import policy.  'allowed' whitelists repro-internal
#: prefixes (anything else in repro.* is a violation); 'forbidden'
#: blacklists prefixes.  Packages absent here are unconstrained.
LAYERING: Dict[str, Dict[str, Set[str]]] = {
    "sim": {"allowed": {"repro.sim"}},
    "hw": {"allowed": {"repro.hw", "repro.sim"}},
    "mem": {"allowed": {"repro.mem", "repro.sim", "repro.hw",
                        "repro.perf.native"}},
    "net": {"allowed": {"repro.net", "repro.checksum"}},
    "checksum": {"allowed": {"repro.checksum", "repro.hw",
                             "repro.perf.native"}},
    "tcp": {"forbidden": {"repro.atm", "repro.ethernet", "repro.core",
                          "repro.obs", "repro.faults", "repro.udp",
                          "repro.analysis", "repro.chaos"}},
    "ip": {"forbidden": {"repro.atm", "repro.ethernet", "repro.tcp",
                         "repro.core", "repro.obs", "repro.faults",
                         "repro.udp", "repro.socket", "repro.analysis",
                         "repro.chaos"}},
    # The adapters hand transmissions to an *attached* impairment
    # engine duck-typed through link.impairments — importing
    # repro.chaos from the wire layers would invert that dependency.
    "atm": {"forbidden": {"repro.tcp", "repro.ip", "repro.ethernet",
                          "repro.core", "repro.obs", "repro.faults",
                          "repro.udp", "repro.socket", "repro.analysis",
                          "repro.chaos"}},
    "ethernet": {"forbidden": {"repro.tcp", "repro.ip", "repro.atm",
                               "repro.core", "repro.obs", "repro.faults",
                               "repro.udp", "repro.socket",
                               "repro.analysis", "repro.chaos"}},
    "kern": {"forbidden": {"repro.core", "repro.obs", "repro.faults",
                           "repro.atm", "repro.ethernet",
                           "repro.analysis", "repro.chaos"}},
    "obs": {"forbidden": {"repro.analysis"}},
}


#: The compiled extension package may only be imported by the dispatch
#: module (which applies the REPRO_NATIVE policy) and by itself.
_NATIVE_IMPORTERS: Set[str] = {"repro.perf.native", "repro._native"}


def _prefix_match(module: str, prefixes: Set[str]) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


@rule("layering", Severity.ERROR, "all",
      "Import crosses the architecture's layer boundaries (e.g. "
      "repro.tcp importing repro.atm, repro.sim importing anything "
      "beyond itself, or anything outside repro.perf.native importing "
      "repro._native directly).")
def check_layering(ctx: LintContext) -> Iterator[Finding]:
    policy = LAYERING.get(ctx.package or "")
    guard_native = not _prefix_match(ctx.module or "", _NATIVE_IMPORTERS)
    if policy is None and not guard_native:
        return
    for node in ast.walk(ctx.tree):
        targets: List[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            targets = [node.module]
        for target in targets:
            if not target.startswith("repro"):
                continue
            if guard_native and _prefix_match(target, {"repro._native"}):
                yield ctx.finding(
                    node, "layering", Severity.ERROR,
                    f"{ctx.module} imports {target}; only "
                    f"repro.perf.native may import the compiled "
                    f"extension (use `repro.perf.native.lib`)")
                continue
            if policy is None:
                continue
            allowed = policy.get("allowed")
            if allowed is not None:
                if not _prefix_match(target, allowed):
                    yield ctx.finding(
                        node, "layering", Severity.ERROR,
                        f"{ctx.module} imports {target}; repro."
                        f"{ctx.package} may only import "
                        f"{sorted(allowed)}")
                continue
            forbidden = policy.get("forbidden", set())
            if _prefix_match(target, forbidden):
                yield ctx.finding(
                    node, "layering", Severity.ERROR,
                    f"{ctx.module} imports {target}; repro."
                    f"{ctx.package} must stay below it in the layer "
                    f"graph")


_COST_NAME = re.compile(r"(_US|_NS|_CYCLES)$|COST")
_UNIT_CONVERSION = re.compile(r"^[A-Z]+_PER_[A-Z]+$")


@rule("magic-cost", Severity.ERROR, "det",
      "Numeric timing/cost constant outside repro.hw.costs; calibrated "
      "cycle costs must live in the machine cost model so they stay "
      "auditable against the paper's microbenchmarks.")
def check_magic_cost(ctx: LintContext) -> Iterator[Finding]:
    # Only module- and class-level assignments: locals are derived
    # values, not baked-in calibration constants.
    scopes: List[ast.AST] = [ctx.tree]
    scopes += [n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for stmt in getattr(scope, "body", []):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if isinstance(value, ast.UnaryOp) and \
                    isinstance(value.op, ast.USub):
                value = value.operand
            if not (isinstance(value, ast.Constant)
                    and isinstance(value.value, (int, float))
                    and not isinstance(value.value, bool)):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if not name.isupper():
                    continue
                if _UNIT_CONVERSION.match(name):
                    continue  # NS_PER_US-style unit definitions
                if _COST_NAME.search(name):
                    yield ctx.finding(
                        stmt, "magic-cost", Severity.ERROR,
                        f"timing constant {name} belongs in "
                        f"repro.hw.costs (or needs a pragma explaining "
                        f"why it is structural, not calibration)")
