"""Build script: pure-Python package plus an *optional* C extension.

``repro._native._corec`` compiles the two measured hot spots (the
Internet checksum and the mbuf chain helpers).  The extension is
strictly optional: any compiler or header failure downgrades to the
pure-Python wheel with a notice, so ``pip install`` can never fail for
lack of a toolchain.  Selection between the two paths happens at import
time in :mod:`repro.perf.native` (``REPRO_NATIVE=0|1``).
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that downgrades compile failures to a warning."""

    def run(self):  # noqa: D102
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any failure is non-fatal
            self._warn(exc)

    def build_extension(self, ext):  # noqa: D102
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001 - any failure is non-fatal
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import sys

        print(
            "WARNING: building the optional repro._native._corec "
            f"extension failed ({exc}); falling back to the pure-Python "
            "implementation (byte-identical, slower).",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "repro._native._corec",
            sources=["src/repro/_native/_corec.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
