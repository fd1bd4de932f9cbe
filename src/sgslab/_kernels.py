"""The compiled routines a run calls, and the only place where sgslab reaches
scipy.

The solver and the Floquet analysis need five routines: LAPACK's banded
Cholesky factorization dpbtrf, its banded triangular solve dtbtrs and its
tridiagonal solve dgtsv, the L-BFGS-B kernel setulb and Brent's root finder.
scipy ships them in three extension modules, scipy.linalg._flapack,
scipy.optimize._lbfgsb and scipy.optimize._zeros.  Importing them the usual
way runs the __init__ of scipy, scipy.linalg and scipy.optimize, which costs
most of a run's start-up; so each is loaded from its file in the installed
scipy package, found without importing it, and registered in sys.modules
under its own name, where a later `import scipy.linalg` finds it.  Where
scipy has already imported one, that module is used.

The wrappers call each routine with the arguments scipy's public function
passes it, so the bits are the same, and raise the errors it raises:
dpbtrf as scipy.linalg.cholesky_banded(ab, check_finite=False), dgtsv as
scipy.linalg.solve_banded((1, 1), ab, b, check_finite=False), brentq as
scipy.optimize.brentq(f, a, b, xtol=xtol).  dtbtrs and setulb are the
routines themselves.  There is no fallback to the public functions: it would
be a second code path, so a missing kernel is an ImportError at import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np


def _load(name: str):
    """The extension module scipy.<name>: sys.modules' entry, or else the
    module loaded from its file."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")  # locates scipy without importing it
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"{full} not found: scipy is not installed", name=full)
    *package, leaf = name.split(".")
    stem = Path(spec.submodule_search_locations[0], *package, leaf)
    paths = [stem.with_name(leaf + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"{full} not found: no file {paths[0]}", name=full, path=str(paths[0]))
    loader = importlib.machinery.ExtensionFileLoader(full, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
    loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _load("linalg._flapack")
_zeros = _load("optimize._zeros")
dtbtrs = _flapack.dtbtrs
setulb = _load("optimize._lbfgsb").setulb

# scipy.optimize.brentq's defaults
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def dpbtrf(ab: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, in the same banded storage, of the positive
    definite band matrix ab (upper storage)."""
    c, info = _flapack.dpbtrf(ab, lower=0, overwrite_ab=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {info}-th argument of internal pbtrf")
    return c


def dgtsv(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the tridiagonal A in (1, 1)-banded storage ab:
    superdiagonal ab[0, 1:], diagonal ab[1], subdiagonal ab[2, :-1].
    Neither ab nor b is overwritten.  A 1 x 1 system is one division, as
    scipy does it."""
    if b.size == 1:
        return b / ab[1]
    x, info = _flapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, 0, 0, 0, 0)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv/gtsv")
    return x


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b], where f changes sign, by Brent's method with
    relative tolerance 4 eps and at most 100 iterations.  ValueError where f
    is NaN or does not change sign, RuntimeError where it does not converge."""

    def checked(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return _zeros._brentq(checked, a, b, xtol, _BRENT_RTOL, _BRENT_MAXITER, (), False, True)
