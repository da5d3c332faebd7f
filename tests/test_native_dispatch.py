"""The optional compiled hot core and its import-time dispatch.

Two families of checks:

* dispatch mechanics — ``REPRO_NATIVE`` policy, metadata, and the
  subprocess smoke that flips the env var (selection happens at import
  time, so it can only be observed from a fresh interpreter);
* native/pure equivalence — the compiled functions must return values
  (and raise errors) *identical* to the saved pure-Python originals.
  These run only where the extension is importable; the byte-level
  table/trace goldens are separately exercised under both paths by the
  CI ``native`` job.
"""

import os
import random
import subprocess
import sys

import pytest

import repro.perf.native as native_dispatch

requires_native = pytest.mark.skipif(
    not native_dispatch.NATIVE_AVAILABLE,
    reason="compiled repro._native._corec not built")

#: The in-process equivalence tests reach the pure originals through
#: the ``_*_py`` names saved at rebinding time, which only exist when
#: the native path was actually selected for this interpreter.
requires_native_in_use = pytest.mark.skipif(
    not native_dispatch.NATIVE_IN_USE,
    reason="native path not selected in this process")


# ----------------------------------------------------------------------
# Dispatch mechanics
# ----------------------------------------------------------------------
def test_describe_reports_execution_path():
    meta = native_dispatch.describe()
    assert meta["native"] == native_dispatch.NATIVE_IN_USE
    assert meta["native_available"] == native_dispatch.NATIVE_AVAILABLE
    assert meta["python"] == sys.version.split()[0]
    assert meta["implementation"]


def test_in_use_implies_available():
    if native_dispatch.NATIVE_IN_USE:
        assert native_dispatch.NATIVE_AVAILABLE
        assert native_dispatch.lib is not None
    else:
        assert native_dispatch.lib is None


def _probe(env_value):
    """NATIVE_IN_USE as seen by a fresh interpreter with REPRO_NATIVE
    set to *env_value* (unset when None)."""
    env = dict(os.environ)
    env.pop("REPRO_NATIVE", None)
    if env_value is not None:
        env["REPRO_NATIVE"] = env_value
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.perf.native as n; print(n.NATIVE_IN_USE)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def test_repro_native_0_forces_pure_path():
    assert _probe("0") is False
    assert _probe("off") is False


@requires_native
def test_default_uses_extension_when_built():
    assert _probe(None) is True
    assert _probe("1") is True


def test_repro_native_1_without_extension_raises():
    if native_dispatch.NATIVE_AVAILABLE:
        pytest.skip("extension is built; the missing case is covered "
                    "by the pure-only CI jobs")
    env = dict(os.environ, REPRO_NATIVE="1")
    out = subprocess.run(
        [sys.executable, "-c", "import repro.perf.native"],
        env=env, capture_output=True, text=True)
    assert out.returncode != 0
    assert "REPRO_NATIVE" in out.stderr


@requires_native
def test_simulator_class_follows_dispatch():
    from repro.sim import engine

    if native_dispatch.NATIVE_IN_USE:
        assert engine.Simulator.__name__ == "_NativeSimulator"
        assert issubclass(engine.Simulator, engine._PurePythonSimulator)
    else:
        assert engine.Simulator.__name__ == "Simulator"


# ----------------------------------------------------------------------
# Native vs pure equivalence (direct, function-by-function)
# ----------------------------------------------------------------------
@requires_native_in_use
def test_checksum_functions_match_pure():
    from repro.checksum import internet

    rng = random.Random(0xA71)
    for size in (0, 1, 2, 3, 19, 255, 256, 257, 1400, 4096):
        data = bytes(rng.randrange(256) for _ in range(size))
        assert internet.raw_sum(data) == internet._raw_sum_py(data)
        assert internet.internet_checksum(data) == \
            internet._internet_checksum_py(data)
        assert internet.internet_checksum(data, initial=0x1234) == \
            internet._internet_checksum_py(data, initial=0x1234)


@requires_native_in_use
def test_mbuf_chain_helpers_match_pure():
    from repro.hw import decstation_5000_200
    from repro.mem.mbuf import MbufError, MbufPool

    pool = MbufPool(decstation_5000_200())
    chain, _ = pool.build_chain(bytes(range(256)) * 3, use_clusters=False)
    assert chain.length == sum(len(m) for m in chain.mbufs)
    assert chain.to_bytes() == b"".join(m.data for m in chain.mbufs)
    assert chain.slice_bytes(100, 200) == chain.to_bytes()[100:300]
    spans = chain.mbufs_spanning(100, 200)
    assert b"".join(m.data[s:s + t] for m, s, t in spans) == \
        chain.slice_bytes(100, 200)
    with pytest.raises(MbufError) as err:
        chain.slice_bytes(0, chain.length + 1)
    assert str(err.value) == (
        f"slice [0:{chain.length + 1}] outside chain of "
        f"{chain.length} bytes")


@requires_native_in_use
def test_engine_trace_identical_to_pure():
    """The same workload steps through both engines identically."""
    from repro.sim import engine

    def workload(sim_cls):
        sim = sim_cls(tiebreak="fifo")
        trace = []
        rng = random.Random(7)

        def cb(tag):
            trace.append((sim.now, tag))
            if tag < 400:
                sim.schedule(rng.randrange(1, 5000), cb, tag + 7)

        for i in range(40):
            sim.schedule(rng.randrange(0, 1000), cb, i)
        handle = sim.schedule(100, cb, 999)
        handle.cancel()
        sim.run()
        return trace, sim.now, sim.events_executed

    assert workload(engine.Simulator) == \
        workload(engine._PurePythonSimulator)
