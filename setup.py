"""Build hooks for the optional compiled sweep kernel.

The extension is compiled from the shipped ``src/hj_strata/_sweep_core.c``,
which Cython generated from ``_sweep_core.pyx``; building needs numpy and a C
compiler, not Cython.  Regenerate the ``.c`` with Cython whenever the ``.pyx``
changes.  In a source checkout, ``python setup.py build_ext --inplace`` puts
the extension next to the sources.

The package is fully functional without the extension (a numpy fallback is
selected at import time), so any failure here downgrades to a pure-Python
install instead of aborting.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """``build_ext`` that skips the kernel instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - exercised only on broken toolchains
            print(f"hj-strata: skipping compiled kernel ({exc}); pure-Python fallback will be used")


ext_modules = []
try:
    import numpy as np

    ext_modules = [
        Extension(
            "hj_strata._sweep_core",
            sources=["src/hj_strata/_sweep_core.c"],
            include_dirs=[np.get_include()],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        )
    ]
except Exception as exc:  # pragma: no cover - exercised only on broken toolchains
    print(f"hj-strata: skipping compiled kernel ({exc}); pure-Python fallback will be used")

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
