"""Performance tooling: the work-counter gate and the native-core dispatch.

* :mod:`repro.perf.bench` — ``repro bench``: the exact work counters
  (events, CPU jobs, mbufs, cells, segments, PCB scans) of six fixed
  runs, held equal to the committed ``benchmarks/counts.json`` by
  ``tests/test_perf_bench.py``.  Wall time is measured by
  ``perfbench/``;
* :mod:`repro.perf.native` — import-time dispatch to the optional
  compiled hot core (``REPRO_NATIVE=0|1``).

Neither alters simulated results; equivalence is enforced by
``tests/test_perf_equivalence.py`` and the golden fixtures in
``tests/perf_golden/``.  The package imports nothing itself, so the
hot-path modules (``repro.checksum``, ``repro.mem.mbuf``) can import
``repro.perf.native`` at their own import time.
"""
