"""The compiled routines of sgslab._kernels against scipy's public functions."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.optimize

import sgslab
from sgslab import _kernels

SIZES = [1, 2, 499]


def _banded_spd(rng, n):
    """Upper (1, 1)-banded storage of a diagonally dominant symmetric matrix."""
    off = rng.uniform(-1.0, 1.0, n)
    off[0] = 0.0
    return np.vstack([off, rng.uniform(3.0, 4.0, n)])


def _tridiagonal(rng, n):
    """(1, 1)-banded storage of a diagonally dominant tridiagonal matrix."""
    ab = np.vstack([rng.uniform(-1.0, 1.0, n), rng.uniform(3.0, 4.0, n), rng.uniform(-1.0, 1.0, n)])
    ab[0, 0] = ab[2, -1] = 0.0
    return ab


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_dpbtrf_matches_cholesky_banded(n):
    ab = _banded_spd(np.random.default_rng(n), n)
    before = ab.copy()
    assert _same_bits(_kernels.dpbtrf(ab), scipy.linalg.cholesky_banded(ab, check_finite=False))
    assert _same_bits(ab, before)


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("n", SIZES)
def test_dtbtrs_matches_scipy_lapack(n, trans):
    rng = np.random.default_rng(10 + n)
    R = scipy.linalg.cholesky_banded(_banded_spd(rng, n), check_finite=False)
    b = rng.standard_normal(n)
    assert _same_bits(_kernels.dtbtrs(R, b, trans=trans)[0],
                      scipy.linalg.lapack.dtbtrs(R, b, trans=trans)[0])


@pytest.mark.parametrize("n", SIZES)
def test_dgtsv_matches_solve_banded(n):
    rng = np.random.default_rng(20 + n)
    ab, b = _tridiagonal(rng, n), rng.standard_normal(n)
    ab_before, b_before = ab.copy(), b.copy()
    assert _same_bits(_kernels.dgtsv(ab, b), scipy.linalg.solve_banded((1, 1), ab, b, check_finite=False))
    assert _same_bits(ab, ab_before) and _same_bits(b, b_before)


@pytest.mark.parametrize("shift", [0.3, 1.7, 2.9])
def test_brentq_matches_scipy(shift):
    f = lambda x: np.cos(x) * x - shift + 0.1 * x ** 3
    assert _kernels.brentq(f, 0.0, 4.0, xtol=1e-10) == scipy.optimize.brentq(f, 0.0, 4.0, xtol=1e-10)


def test_errors_match_scipy(monkeypatch):
    not_pd = np.array([[0.0, 2.0], [1.0, 1.0]])
    for call in (_kernels.dpbtrf, lambda ab: scipy.linalg.cholesky_banded(ab, check_finite=False)):
        with pytest.raises(np.linalg.LinAlgError, match="leading minor"):
            call(not_pd)
    singular = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])   # [[1, 1], [1, 1]]
    for call in (_kernels.dgtsv, lambda ab, b: scipy.linalg.solve_banded((1, 1), ab, b)):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            call(singular, np.ones(2))

    nan_inside = lambda x: np.nan if 0.2 < x < 0.9 else x - 0.5
    for call in (_kernels.brentq, scipy.optimize.brentq):
        with pytest.raises(ValueError, match="NaN"):
            call(nan_inside, 0.0, 1.0, xtol=1e-10)
        with pytest.raises(ValueError, match="different signs"):
            call(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-10)
    monkeypatch.setattr(_kernels, "_BRENT_MAXITER", 2)
    with pytest.raises(RuntimeError, match="converge"):
        _kernels.brentq(np.tan, -1.0, 1.2, xtol=1e-10)
    with pytest.raises(RuntimeError, match="converge"):
        scipy.optimize.brentq(np.tan, -1.0, 1.2, xtol=1e-10, maxiter=2)


def test_one_loaded_module_per_kernel():
    # whichever of sgslab and scipy came first, the other reuses its module
    assert _kernels.dtbtrs is scipy.linalg.lapack.dtbtrs
    assert _kernels.setulb is sys.modules["scipy.optimize._lbfgsb"].setulb


def test_missing_kernel_is_an_import_error_naming_the_file():
    with pytest.raises(ImportError, match=r"no file .*_no_such_kernel"):
        _kernels._load("linalg._no_such_kernel")


def _child(code):
    env = dict(os.environ, PYTHONPATH=str(Path(sgslab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_loads_no_scipy_subpackage():
    loaded = _child("import json, sys, sgslab.experiment\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert loaded == ["scipy.linalg._flapack", "scipy.optimize._lbfgsb", "scipy.optimize._zeros"]
    for package in ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special"):
        assert package not in loaded


_BITS = """
import hashlib, json, sys
{first}
from sgslab import bloch, variational
from sgslab.media import FunctionDescriptor, PeriodicMedium, ProblemParams
V = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
grid = variational.Grid.from_extent(8.0, 0.08)
res = variational.solve_ground_state(PeriodicMedium(V, FunctionDescriptor(const=1.0)),
                                     ProblemParams(3.0, -1.0), grid)
print(json.dumps([bloch.spectrum_min(V).hex(), res.energy_c.hex(), res.iterations,
                  hashlib.sha256(res.state.values.tobytes()).hexdigest(),
                  "scipy.linalg" in sys.modules]))
"""


def test_same_bits_with_and_without_scipy_imported_first():
    alone = _child(_BITS.format(first=""))
    after_scipy = _child(_BITS.format(first="import scipy.linalg, scipy.optimize"))
    assert alone[:4] == after_scipy[:4]
    assert (alone[4], after_scipy[4]) == (False, True)
