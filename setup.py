from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = []
else:
    ext_modules = cythonize(
        [Extension("sonarray._kernels._sdm", ["src/sonarray/_kernels/_sdm.pyx"])],
        language_level=3,
    )
    # cythonize builds new Extension objects, so mark its output: build_ext
    # then warns and skips the kernel if it fails to compile (no C compiler),
    # and the package runs on the pure-Python fallback.
    for ext in ext_modules:
        ext.optional = True

setup(ext_modules=ext_modules)
