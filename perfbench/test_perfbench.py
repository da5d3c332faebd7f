"""Tests of the benchmark itself.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

import importlib
import json
import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["REPRO_NATIVE"] = "0"

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, Loop, RpcInputs, run_window  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = WORKLOADS[name]
    first = [RpcInputs(w, 5)[i] for i in range(200)]
    again = RpcInputs(w, 5)
    assert [again[i] for i in reversed(range(200))][::-1] == first
    other = [RpcInputs(w, 6)[i] for i in range(200)]
    assert other != first
    sizes = {len(req) for req, _rep in first} | {len(rep) for _r, rep in first}
    assert sizes <= set(w.sizes)


def test_percentile_reports_its_sample_count():
    value, n = stats.percentile(list(range(100)), 0.90)
    assert (value, n) == (89, 100)
    assert stats.percentile(list(range(20)), 0.50) == (9, 20)


def test_percentile_refused_with_fewer_than_ten_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 0.90)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 0.50)


def test_normalizer_scales_each_interval_by_its_probes():
    clock = hostspeed.HostClock()
    ref = hostspeed.REF_NS
    clock.at = [0, 100, 200]
    clock.ref_ns = [ref, 2 * ref, 2 * ref]
    norm = clock.normalizer()
    assert norm(0) == 0
    assert norm(100) == pytest.approx(100 * 2 / 3)
    assert norm(200) - norm(100) == pytest.approx(50)
    assert norm(-10) == pytest.approx(-10)
    assert norm(300) - norm(200) == pytest.approx(50)
    assert clock.factor() == 2


def test_the_clock_stops_while_the_reference_runs():
    clock = hostspeed.HostClock(every_ns=10**12)
    clock.tick()
    assert len(clock.ref_ns) == 1 and clock.paused_ns >= clock.ref_ns[0]
    before = clock.now()
    clock.tick()  # not due yet
    assert len(clock.ref_ns) == 1
    clock.probe()
    assert clock.now() - before < clock.ref_ns[1]


def test_reference_checks_its_result(monkeypatch):
    monkeypatch.setattr(hostspeed, "REFERENCE_RESULT", -1)
    with pytest.raises(hostspeed.ReferenceMismatch):
        hostspeed.HostClock().probe()


class CorruptingLoop(Loop):
    def reply_for(self, index, reply):
        if index == 7:
            return bytes([reply[0] ^ 1]) + reply[1:]
        return reply


def test_corrupted_reply_counts_as_failed():
    bench = run.Bench("rpc_small", seed=3, seconds=1)
    loop = CorruptingLoop(bench.workload, 3)
    bench.live.append(loop)
    run_window(loop, 30)
    assert (loop.attempted, loop.completed, loop.failed) == (50, 50, 1)
    bench.retire(loop)
    assert (bench.failed, bench.attempted) == (1, 50)


def test_unfinished_rpcs_count_as_failed():
    bench = run.Bench("rpc_small", seed=3, seconds=1)
    loop = bench.new_loop(3)
    loop.start(stop=lambda i: i >= 10)
    loop.tb.sim.run_until_triggered(loop.mark(4))
    bench.abandon()
    assert bench.attempted == 5 and bench.failed == 1


def _entry_point_objects():
    objects = {}
    for _layer, module_name, cls_name, attrs, _req in layers.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        for attr in attrs:
            if attr in vars(owner):
                objects[(owner, attr)] = vars(owner)[attr]
    from repro.net import headers
    from repro.socket import socket as socket_module

    objects[(headers, "raw_sum")] = headers.raw_sum
    objects[(socket_module, "raw_sum")] = socket_module.raw_sum
    return objects


def test_wrappers_install_and_restore_identical_objects():
    before = _entry_point_objects()
    patcher = layers.Patcher(layers.Tracer())
    with patcher:
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original, attr
            assert vars(owner)[attr].__wrapped__ is original, attr
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, attr


def test_a_missed_by_name_reference_fails_loudly():
    from repro.checksum.internet import raw_sum

    module = types.ModuleType("repro._stale_probe")

    def summed(data, _sum=raw_sum):
        return _sum(data)

    summed.__module__ = module.__name__
    module.summed = summed
    sys.modules[module.__name__] = module
    before = _entry_point_objects()
    try:
        with pytest.raises(layers.WrapError, match="raw_sum"):
            layers.Patcher(layers.Tracer()).install()
    finally:
        del sys.modules[module.__name__]
    assert _entry_point_objects() == before


def test_traced_window_matches_untraced_and_cross_checks_hold():
    bench = run.Bench("lossy_ether", seed=2, seconds=1)
    plain = bench.new_loop(2)
    run_window(plain, 150)
    tracer = layers.Tracer()
    with layers.Patcher(tracer):
        traced = bench.new_loop(
            2, wrap_app=lambda fn: layers.wrap_app(tracer, fn))

        def on(flag):
            tracer.active = flag

        run_window(traced, 150, lambda: on(True), lambda: on(False))
        assert traced.digest() == plain.digest()
        bench.cross_check(traced, tracer)
    assert bench.errors == []
    assert sum(tracer.self_ns.values()) == tracer.root_ns > 0
    assert tracer.calls["chaos"] > 0 and tracer.calls["atm"] == 0


def test_reference_digest_matches_committed():
    bench = run.Bench("rpc_bulk", seed=0, seconds=1)
    bench.check_reference()
    assert bench.errors == [] and bench.failed == 0


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.PER_LAYER
    assert json.loads((HERE / "digests.json").read_text()).keys() == \
        WORKLOADS.keys()
