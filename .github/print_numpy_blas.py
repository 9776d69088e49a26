"""Print numpy's version and the OpenBLAS core its bundled library picked
at run time, so a sequence pin or digest that fails on one machine can be
traced to its kernel.  The core is read through ctypes from the library in
``numpy.libs``; it prints ``unknown`` if there is no such library or it
lacks ``scipy_openblas_get_corename64_``."""

import ctypes
import glob
import os

import numpy

core = "unknown"
libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")))
if libs:
    corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
print(f"numpy {numpy.__version__}, OpenBLAS core {core}")
