"""Build hook for the optional compiled kernel extension.

The package works without the extension (the pure-Python kernels are the
import-time fallback), so any build failure here downgrades to a warning.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler: fall back to pure Python
            print(f"warning: skipping compiled kernels ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name} ({exc})", file=sys.stderr)


KERNELS = Extension(
    "forcing_lab._ckernels", ["src/forcing_lab/_ckernels.c"], extra_compile_args=["-O3"]
)

setup(ext_modules=[KERNELS], cmdclass={"build_ext": OptionalBuildExt})
