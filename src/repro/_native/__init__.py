"""Optional compiled hot core (C extension).

Nothing outside :mod:`repro.perf.native` may import this package — the
``repro lint`` layering rule enforces it.  Importing raises
:class:`ImportError` when the extension has not been built; the
dispatch module treats that as "pure Python only".
"""

from repro._native._corec import (  # noqa: F401
    POOL_MAX,
    EngineCore,
    ScheduledCall,
    aal_install,
    aal_reassemble,
    aal_segment,
    chain_length,
    chain_slice,
    chain_spans,
    chain_to_bytes,
    chunk_sizes,
    combine,
    crc10,
    crc32,
    engine_install,
    internet_checksum,
    mbuf_install,
    raw_sum,
    verify,
)
