"""Only ``linalg`` factors a matrix or rules on its spectrum.

The estimator modules below reach SVDs, QRs and eigensolvers through
``sketchpcr.linalg``, never through numpy's or scipy's linear algebra
directly; a vector or matrix norm (``np.linalg.norm``) is allowed.
``evaluation`` and ``cli`` are exempt on purpose: their factorizations
(``_haar``'s QR, ``bias_variance``'s SVD, ``pcr verify``'s ``pinv`` and
``eigvalsh``) are the independent checks of the library, and should not
reuse the code they check.

``linalg`` itself imports nothing from scipy. The numpy and scipy wheels
each bundle their own OpenBLAS, each with its own thread pool; a solver
that alternates numpy products with scipy's LAPACK or ARPACK calls runs
two pools that contend for the same cores.

``linalg`` also decides the BLAS thread count of its own
factorizations: it runs them on one thread of numpy's OpenBLAS, which it
binds through ``ctypes``, and takes its Lanczos products from that
library's ``dsymv`` and the sketched kernel fit's Gram matrix from its
``dsyrk``. The library it binds, and the one that ``dsymv`` and ``dsyrk``
come from, lie in numpy's own package (``numpy.libs`` beside it, or
``numpy/.dylibs``), never in scipy's.
"""

import ast
import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy

import sketchpcr
from sketchpcr import linalg

LAYERED = ["io.py", "kernel.py", "sketch.py", "solvers.py", "streaming.py"]
BANNED = {"numpy.linalg", "scipy.linalg", "scipy.sparse.linalg"}


def linalg_uses(source):
    """(line, what) for each import of a banned module and each
    ``X.linalg.<name>`` other than ``norm`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name in BANNED]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [(node.lineno, f"from {node.module} import ...")
                      for name in [node.module] + names if name in BANNED]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg" and node.attr != "norm"):
            found.append((node.lineno, f"linalg.{node.attr}"))
    return found


def test_the_check_sees_every_form():
    source = ("import scipy.linalg\nfrom scipy.sparse import linalg\n"
              "from numpy.linalg import svd\nx = np.linalg.qr(a)\n"
              "y = scipy.sparse.linalg.eigsh(a, 2)\nz = np.linalg.norm(a)\n"
              "from .linalg import thin_svd\n")
    assert [line for line, _ in linalg_uses(source)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", LAYERED)
def test_only_linalg_factors(module):
    path = Path(sketchpcr.__file__).parent / module
    assert linalg_uses(path.read_text()) == []


def scipy_imports(source):
    """(line, module) for each import of scipy or a scipy module in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            found.append((node.lineno, node.module))
    return found


def test_the_scipy_check_sees_every_form():
    source = ("import scipy\nimport scipy.sparse.linalg as spla\nfrom scipy import linalg\n"
              "from scipy.linalg import eigh\nimport numpy\nfrom .sketch import x\n")
    assert [line for line, _ in scipy_imports(source)] == [1, 2, 3, 4]


def test_linalg_imports_no_scipy():
    path = Path(sketchpcr.__file__).parent / "linalg.py"
    assert scipy_imports(path.read_text()) == []


def test_linalg_binds_numpys_own_openblas_and_never_scipys():
    if linalg._numpy_openblas() is None:
        pytest.skip("no OpenBLAS thread count found in numpy's package")
    lib = linalg._numpy_openblas().path.resolve()
    numpy_dir = Path(np.__file__).resolve().parent
    assert lib.parent in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
    scipy_dir = Path(scipy.__file__).resolve().parent
    assert lib.parent not in (scipy_dir.parent / "scipy.libs", scipy_dir / ".dylibs")


class DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def assert_from_numpys_own_openblas(routine, name):
    """The bound ``routine`` is the symbol ``name`` (any naming) of a library
    in numpy's own package."""
    dladdr = getattr(ctypes.CDLL(None), "dladdr", None)
    if dladdr is None:
        pytest.skip("no dladdr to name the library a symbol lies in")
    dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.POINTER(DlInfo)], ctypes.c_int
    info = DlInfo()
    assert dladdr(ctypes.cast(routine, ctypes.c_void_p), ctypes.byref(info))
    assert info.dli_sname.decode().endswith((f"{name}64_", name))
    numpy_dir = Path(np.__file__).resolve().parent
    assert Path(info.dli_fname.decode()).resolve().parent in (numpy_dir.parent / "numpy.libs",
                                                              numpy_dir / ".dylibs")


def test_dsymv_comes_from_numpys_own_openblas():
    blas = linalg._numpy_openblas()
    if blas is None or blas.symv is None:
        pytest.skip("no dsymv found in numpy's OpenBLAS")
    assert_from_numpys_own_openblas(blas.symv, "cblas_dsymv")


def test_dsyrk_comes_from_numpys_own_openblas():
    blas = linalg._numpy_openblas()
    if blas is None or blas.syrk is None:
        pytest.skip("no dsyrk found in numpy's OpenBLAS")
    assert_from_numpys_own_openblas(blas.syrk, "cblas_dsyrk")
