"""The determinism linter: rule registry, pragmas, fixture corpus.

The fixture corpus under ``tests/lint_fixtures/`` is golden-file
driven: each ``<name>.py`` poses as a stack module (via the
``# repro: module(...)`` directive) and deliberately violates one rule;
``<name>.expected`` lists the findings as ``line:col rule-id`` lines.
Together the corpus triggers every shipped rule, and the suite asserts
the real source tree lints clean — the acceptance bar for every future
PR touching the simulator.
"""

import glob
import os
import subprocess
import sys

import pytest

from repro.analysis import RULES, Finding, Linter, Severity, lint_paths
from repro.analysis.findings import parse_pragmas
from repro.analysis.linter import module_name_for, rule_catalog

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "lint_fixtures")
SRC_REPRO = os.path.join(os.path.dirname(__file__), os.pardir,
                         "src", "repro")

FIXTURES = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.py")))


def _golden_lines(path):
    expected_path = path[:-3] + ".expected"
    with open(expected_path) as handle:
        return [line.strip() for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Golden corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", FIXTURES,
                         ids=[os.path.basename(p)[:-3] for p in FIXTURES])
def test_fixture_matches_golden(path):
    findings = Linter().lint_file(path)
    got = [f"{f.line}:{f.col} {f.rule}" for f in findings]
    assert got == _golden_lines(path)


def test_corpus_triggers_every_rule():
    triggered = set()
    for path in FIXTURES:
        for line in _golden_lines(path):
            triggered.add(line.split()[-1])
    assert triggered == set(RULES), (
        "every shipped rule must have fixture coverage; missing: "
        f"{set(RULES) - triggered}, stale: {triggered - set(RULES)}")


def test_src_tree_lints_clean():
    findings = lint_paths([SRC_REPRO])
    assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_pragma_same_line_suppresses():
    source = "import time\nstart = time.time()  # repro: allow(wall-clock)\n"
    assert Linter().lint_source(source, "x.py") == []


def test_pragma_previous_line_suppresses():
    source = ("import time\n"
              "# repro: allow(wall-clock)\n"
              "start = time.time()\n")
    assert Linter().lint_source(source, "x.py") == []


def test_pragma_wrong_rule_does_not_suppress():
    source = "import time\nstart = time.time()  # repro: allow(layering)\n"
    findings = Linter().lint_source(source, "x.py")
    assert [f.rule for f in findings] == ["wall-clock"]


def test_pragma_multiple_rules():
    pragmas = parse_pragmas("x = 1  # repro: allow(wall-clock, magic-cost)\n")
    assert pragmas.allows(1, "wall-clock")
    assert pragmas.allows(1, "magic-cost")
    assert not pragmas.allows(1, "layering")


def test_module_directive_enables_zone_rules():
    source = ("# repro: module(repro.tcp.fake)\n"
              "import repro.atm\n")
    findings = Linter().lint_source(source, "anywhere.py")
    assert [f.rule for f in findings] == ["layering"]
    # Without the directive the same file is zone-less and clean.
    findings = Linter().lint_source("import repro.atm\n", "anywhere.py")
    assert findings == []
    # The engine imports nothing beyond itself, not even repro.obs.
    for imported in ("repro.perf.bench", "repro.obs.hooks"):
        source = ("# repro: module(repro.sim.fake)\n"
                  f"import {imported}\n")
        findings = Linter().lint_source(source, "anywhere.py")
        assert [f.rule for f in findings] == ["layering"], imported


# ----------------------------------------------------------------------
# Infrastructure
# ----------------------------------------------------------------------
def test_module_name_for_maps_src_layout():
    assert module_name_for("/r/src/repro/sim/engine.py") == \
        "repro.sim.engine"
    assert module_name_for("/r/src/repro/tcp/__init__.py") == "repro.tcp"
    assert module_name_for("/somewhere/else/fixture.py") is None


def test_syntax_error_becomes_finding():
    findings = Linter().lint_source("def broken(:\n", "bad.py")
    assert len(findings) == 1
    assert findings[0].rule == "syntax"
    assert findings[0].severity == Severity.ERROR


def test_finding_format_and_dict_round_trip():
    finding = Finding(path="a.py", line=3, col=7, rule="wall-clock",
                      severity="error", message="m")
    assert finding.format() == "a.py:3:7: [wall-clock] error: m"
    assert finding.as_dict()["rule"] == "wall-clock"


def test_rule_catalog_lists_all_rules():
    catalog = rule_catalog()
    for rule_id in RULES:
        assert rule_id in catalog


def test_cli_lint_flags_fixtures_and_passes_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(SRC_REPRO, os.pardir))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", FIXTURE_DIR],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "[wall-clock]" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", SRC_REPRO],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout
