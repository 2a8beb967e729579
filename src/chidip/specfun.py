"""Auxiliary improper integrals and sine/cosine-integral support.

The level-shift cross terms need the two Laplace-type integrals

    I1(u) = int_0^inf  xi^3 exp(-xi*u) / (xi^2 + 1)  dxi
    I2(u) = int_0^inf  xi^2 exp(-xi*u) / (xi^2 + 1)  dxi        (u > 0)

evaluated at u = n_lambda * x.  Both diverge as u -> 0+ (like 1/u^2 and 1/u)
and decay as 6/u^4 and 2/u^3 for large u.

They are evaluated by closed forms in terms of Si/Ci:

      I1(u) = 1/u^2 - [ -Ci(u) cos u + (pi/2 - Si(u)) sin u ]
      I2(u) = 1/u   - [  Ci(u) sin u + (pi/2 - Si(u)) cos u ]

The independent route, direct adaptive quadrature of the defining integrals
with the exponential tail truncated at xi_max = max(50/u, 50), is a test
oracle and lives in :mod:`chidip.oracle` (``aux_i1_quadrature``,
``aux_i2_quadrature``).  The closed forms were verified against it over
u in [1e-3, 1e3] before being adopted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .errors import DomainError

# a few ulps of headroom over scipy's sici accuracy (~2 ulp)
_REL_EPS = 4e-16


@dataclass(frozen=True)
class AuxIntegralResult:
    value: float
    est_abs_error: float


def sin_cos_integrals(x: float) -> tuple[float, float]:
    """Standard sine and cosine integrals (Si(x), Ci(x)) for x > 0.

    Si(x) = int_0^x sin(t)/t dt rises monotonically to pi/2 with maximum
    Si(pi); Ci(x) is negative for small x (log divergence at 0) and decays
    to 0 as x -> inf.
    """
    if not (np.isfinite(x) and x > 0.0):
        raise DomainError(f"Si/Ci require x > 0, got {x}")
    si, ci = sici(x)
    return float(si), float(ci)


def aux_i1(u: float) -> AuxIntegralResult:
    """I1(u) via the Si/Ci closed form; absolute error a few ulps of 1/u^2."""
    if not (np.isfinite(u) and u > 0.0):
        raise DomainError(f"I1 diverges for u <= 0, got {u}")
    si, ci = sici(u)
    value = 1.0 / u**2 - (-ci * np.cos(u) + (np.pi / 2 - si) * np.sin(u))
    # error is set by the largest intermediate, 1/u^2 at small u
    est = _REL_EPS * max(abs(value), 1.0 / u**2)
    return AuxIntegralResult(float(value), est)


def aux_i2(u: float) -> AuxIntegralResult:
    """I2(u) via the Si/Ci closed form; absolute error a few ulps of 1/u."""
    if not (np.isfinite(u) and u > 0.0):
        raise DomainError(f"I2 diverges for u <= 0, got {u}")
    si, ci = sici(u)
    value = 1.0 / u - (ci * np.sin(u) + (np.pi / 2 - si) * np.cos(u))
    est = _REL_EPS * max(abs(value), 1.0 / u)
    return AuxIntegralResult(float(value), est)
