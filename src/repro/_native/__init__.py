"""Optional compiled hot core (C extension).

Three twins, each kept because it moves an end-to-end benchmark
number: the event-loop core (``EngineCore``/``ScheduledCall``), the
Internet checksum (``raw_sum``/``internet_checksum``) and the mbuf
chain helpers.

Nothing outside :mod:`repro.perf.native` may import this package — the
``repro lint`` layering rule enforces it.  Importing raises
:class:`ImportError` when the extension has not been built; the
dispatch module treats that as "pure Python only".
"""

from repro._native._corec import (  # noqa: F401
    EngineCore,
    ScheduledCall,
    chain_length,
    chain_slice,
    chain_spans,
    chain_to_bytes,
    chunk_sizes,
    engine_install,
    internet_checksum,
    mbuf_install,
    raw_sum,
)
