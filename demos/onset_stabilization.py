"""Background stratification raises the onset of convection.

With no stratification the critical Rayleigh number, minimized over the
domain width, is the classic 27 pi^4 / 4 at l = 2 sqrt(2). Turning on the
density gradient beta raises the onset monotonically, and for small beta
the relative increase is beta / 2 to first order.
"""

import math

import numpy as np

from anelor.lorenz import critical_rayleigh, minimize_over_length
from anelor.params import PhysicalParams

classic = 27.0 * math.pi**4 / 4.0

optimum = minimize_over_length(beta=0.0)
print(f"flat layer, minimized over width: Ra* = {optimum.rayleigh:.10f} "
      f"at l = {optimum.length:.10f}")
print(f"classic values:                   Ra* = {classic:.10f} "
      f"at l = {2.0 * math.sqrt(2.0):.10f}\n")

base = PhysicalParams(rayleigh=0.0)
flat = critical_rayleigh(base, "closed_form")
print("beta      Ra*            Ra*/Ra*0")
for beta in np.concatenate(([0.0], np.geomspace(0.01, 2.0, 8))):
    value = critical_rayleigh(base.with_beta(float(beta)), "closed_form")
    print(f"{beta:7.4f}  {value:13.6f}  {value / flat:.8f}")

print("\nfirst-order rate (Ra*/Ra*0 - 1)/beta, tending to 1/2:")
for beta in (1e-1, 1e-2, 1e-3, 1e-4):
    rate = (critical_rayleigh(base.with_beta(beta), "closed_form") / flat - 1.0) / beta
    print(f"  beta = {beta:<7g} ratio = {rate:.7f}")
