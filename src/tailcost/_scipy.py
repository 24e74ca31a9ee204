"""The package's one source of compiled scipy code.

The package calls four LAPACK wrappers (the tridiagonal factorization
and solve dgttrf and dgttrs, and the symmetric positive-definite dpttrf
and dpttrs) and two ufuncs of scipy (log_ndtr and ndtr).  The packages
that export them, scipy.linalg and scipy.special, import scipy's
array-API layer, which loads numpy.f2py, numpy.testing, numpy.ma and
numpy.random: most of the package's start-up.  So the two extension
modules that hold the six routines are loaded here from scipy's install
directory, without running either package's __init__.  Each is
registered in sys.modules under its own name, so a later import of
scipy.linalg or scipy.special reuses it and the public names are these
same objects.  A scipy release that keeps a routine elsewhere gets the
public names.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def _extension(name: str) -> ModuleType | None:
    """scipy's compiled module name, loaded without its package; None if absent."""
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy")
    if root is None:
        return None
    package = name.split(".")[1:-1]
    where = [os.path.join(loc, *package) for loc in root.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _routines(name: str, public: str, names: tuple[str, ...]) -> list:
    """names from extension module name, or from module public if name lacks one."""
    module = _extension(name)
    if module is None or not all(hasattr(module, n) for n in names):
        module = importlib.import_module(public)
    return [getattr(module, n) for n in names]


dgttrf, dgttrs, dpttrf, dpttrs = _routines(
    "scipy.linalg._flapack", "scipy.linalg.lapack", ("dgttrf", "dgttrs", "dpttrf", "dpttrs"),
)
log_ndtr, ndtr = _routines(
    "scipy.special._special_ufuncs", "scipy.special", ("log_ndtr", "ndtr"),
)
