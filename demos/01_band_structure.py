"""Band structure of a periodic potential, top to bottom.

The linear operator -u'' + V(x) u with a 1-periodic V organizes its spectrum
into bands.  The discriminant (trace of the one-period monodromy matrix)
tells the whole story: |Delta| <= 2 inside a band, Delta > 2 below the
lowest band, and every solution there decays or grows like e^{-+ kappa x}.
This script scans the discriminant for the cosine potential
V(x) = 1 + 0.5 cos(2 pi x), locates the bottom of the spectrum, and tabulates
the decay exponent kappa in the semi-infinite gap below it.
"""

import numpy as np

from sgslab import bloch
from sgslab.media import FunctionDescriptor

V = FunctionDescriptor(const=1.0, cos=((1, 0.5),))

# ---------------------------------------------------------------------------
# Where does the spectrum start?  The lowest band edge is the first root of
# Delta(lambda) = 2 coming up from below.
bottom = bloch.spectrum_min(V)
print(f"potential: V(x) = 1 + 0.5 cos(2 pi x)")
print(f"bottom of the spectrum: lambda_min = {bottom:.8f}")
print()

# ---------------------------------------------------------------------------
# Scan the discriminant across the gap and into the first band.
print(f"{'lambda':>10}  {'Delta':>14}  {'kappa':>12}")
for lam in np.linspace(bottom - 4.0, bottom + 1.0, 11):
    if lam < bottom - 1e-6:
        # one monodromy gives both Delta and kappa
        M, _, kappa = bloch.floquet_exponent(V, lam)
        print(f"{lam:>10.4f}  {M.trace:>14.6f}  {kappa:>12.6f}")
    else:
        print(f"{lam:>10.4f}  {bloch.monodromy(V, lam).trace:>14.6f}  {'(in band)':>12}")
print()

# ---------------------------------------------------------------------------
# Deep below the spectrum the potential barely matters: kappa approaches
# sqrt(-lambda) and the periodic factors of the Bloch modes flatten to 1.
print("deep-parameter regime: kappa - sqrt(-lambda) and the flatness of p-")
print(f"{'lambda':>10}  {'kappa gap':>14}  {'sup|p- - 1|':>14}")
for lam in (-10.0, -100.0, -1000.0):
    kappa_gap, _, p_dev = bloch.asymptotic_diagnostics(V, lam)
    print(f"{lam:>10.1f}  {kappa_gap:>14.3e}  {p_dev:>14.3e}")
print()
print("both columns shrink: far below the bands the medium looks homogeneous.")
