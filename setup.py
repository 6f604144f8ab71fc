"""Build script: compiles the optional C kernel extension.

The package is fully functional without the extension (`flagstone.kernels`
falls back to the pure-Python reference), so a failed compile only costs
speed.  A C compiler and the Python headers are all it needs:
`pip install -e . --no-build-isolation`, or `python setup.py build_ext
--inplace` in a source checkout.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("flagstone._kernels_c", ["src/flagstone/_kernels_c.c"],
                  extra_compile_args=["-O3"], optional=True),
    ],
)
