"""Import-time selection of the optional compiled hot core.

The core twins two hot spots: the Internet checksum of
:mod:`repro.checksum.internet` and the mbuf chain helpers of
:mod:`repro.mem.mbuf`.  Everything else, the event engine included,
always runs pure Python.

This is the *only* module allowed to import :mod:`repro._native` (the
``repro lint`` layering rule rejects any other importer).  Selection
happens exactly once, at first import, driven by ``REPRO_NATIVE``:

* unset (or any unrecognized value) — use the extension when it is
  importable, silently fall back to pure Python otherwise;
* ``0`` / ``false`` / ``no`` / ``off`` — never use the extension, even
  if built (the equivalence-gated fallback CI jobs run this way);
* ``1`` / ``true`` / ``yes`` / ``on`` — require the extension; raise
  :class:`ImportError` with a build hint when it is missing.

Consumers read :data:`lib` (the extension module, or ``None``) once at
their own import time and never re-test per call, so the dispatch cost
is zero on both paths.
"""

from __future__ import annotations

import os
from types import ModuleType
from typing import Optional

__all__ = ["lib", "NATIVE_AVAILABLE", "NATIVE_IN_USE"]

_FORBID = ("0", "false", "no", "off")
_REQUIRE = ("1", "true", "yes", "on")

_BUILD_HINT = (
    "build it with `python setup.py build_ext --inplace` "
    "(or `pip install .`), or unset REPRO_NATIVE to fall back "
    "to the pure-Python implementation"
)


def _load() -> "tuple[Optional[ModuleType], bool]":
    """Resolve (extension module or None, importable?) once."""
    mode = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if mode in _FORBID:
        # Still probe importability for diagnostics, without using it.
        try:
            import repro._native as _native  # noqa: PLC0415
        except ImportError:
            return None, False
        return None, True
    try:
        import repro._native as _native  # noqa: PLC0415
    except ImportError as exc:
        if mode in _REQUIRE:
            raise ImportError(
                f"REPRO_NATIVE={os.environ['REPRO_NATIVE']!r} requires the "
                f"compiled repro._native._corec extension, which failed to "
                f"import ({exc}); {_BUILD_HINT}"
            ) from exc
        return None, False
    return _native, True


#: Whether the compiled extension can be imported at all.
NATIVE_AVAILABLE: bool

#: The extension module when selected, else ``None``.  Every consumer
#: (Internet checksum, mbuf) binds this once at import time.
lib: Optional[ModuleType]

lib, NATIVE_AVAILABLE = _load()

#: Whether the compiled path is actually in use this process.
NATIVE_IN_USE: bool = lib is not None
