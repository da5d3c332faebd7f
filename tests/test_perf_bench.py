"""The work gate: ``repro bench`` counts equal ``benchmarks/counts.json``.

The simulator is deterministic, so every counter of every fixed run is
an exact number.  A change that moves one fails here, naming the run
and the counter; if the move is intended, rewrite the file with
``python -m repro bench > benchmarks/counts.json`` and say why in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro.__main__ import main
from repro.perf.bench import RUNS

COUNTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / \
    "counts.json"


@pytest.fixture(scope="module")
def committed():
    return json.loads(COUNTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh():
    """One collection through the CLI, parsed from its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["repro", "bench"]) == 0
    return json.loads(out.getvalue())


def test_counts_file_holds_the_six_runs(committed, fresh):
    assert sorted(committed) == sorted(RUNS) == sorted(fresh)


@pytest.mark.parametrize("run", list(RUNS))
def test_run_does_the_committed_work(run, committed, fresh):
    expected, got = committed[run], fresh[run]
    assert sorted(got) == sorted(expected), f"{run}: counter set changed"
    moved = {name: f"{expected[name]} -> {got[name]}"
             for name in sorted(expected)
             if got[name] != expected[name]}
    assert not moved, (
        f"{run}: counters moved {moved}; if intended, rewrite "
        f"benchmarks/counts.json with `python -m repro bench` and say "
        f"why in CHANGES.md")
