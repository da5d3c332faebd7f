"""Performance tooling: the work-counter gate.

* :mod:`repro.perf.bench` — ``repro bench``: the exact work counters
  (events, CPU jobs, mbufs, cells, segments, PCB scans) of six fixed
  runs, held equal to the committed ``benchmarks/counts.json`` by
  ``tests/test_perf_bench.py``.  Wall time is measured by
  ``perfbench/``;
* :mod:`repro.perf.native` — the two constants ``perfbench/run.py``
  reads for its run stamp.

Neither alters simulated results; equivalence is enforced by
``tests/test_perf_equivalence.py`` and the golden fixtures in
``tests/perf_golden/``.
"""
