from setuptools import Extension, setup

# optional: without a working C compiler build_ext warns and skips the
# kernel, and the package runs on the pure-Python loop
setup(ext_modules=[Extension("sonarray._kernels._sdm", ["src/sonarray/_kernels/_sdm.c"],
                             optional=True)])
