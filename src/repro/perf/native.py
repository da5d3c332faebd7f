"""Execution-path constants for the repository benchmark's run stamp.

Every build runs the same pure-Python code, so both constants are
``False``.  ``stamp()`` in ``perfbench/run.py`` reads them for its
``path`` and ``native_available`` fields; once the benchmark drops that
read, this module can go.
"""

NATIVE_AVAILABLE = False
NATIVE_IN_USE = False
