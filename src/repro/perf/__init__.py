"""Performance tooling: the bench harness and the native-core dispatch.

* :mod:`repro.perf.bench` — the ``repro bench`` wall-time regression
  harness (hot layers, round trips, Table 1, and connection scale on
  the hash- and list-PCB kernels) and its committed per-path baselines
  in ``benchmarks/``;
* :mod:`repro.perf.native` — import-time dispatch to the optional
  compiled hot core (``REPRO_NATIVE=0|1``).

Neither alters simulated results; equivalence is enforced by
``tests/test_perf_equivalence.py`` and the golden fixtures in
``tests/perf_golden/``.  The package imports nothing itself, so the
hot-path modules (``repro.sim.engine``, ``repro.checksum``, …) can
import ``repro.perf.native`` at their own import time.
"""
