"""The auxiliary improper integrals I1 and I2 of the level shift.

The level-shift cross terms need the two Laplace-type integrals

    I1(u) = int_0^inf  xi^3 exp(-xi*u) / (xi^2 + 1)  dxi
    I2(u) = int_0^inf  xi^2 exp(-xi*u) / (xi^2 + 1)  dxi        (u > 0)

evaluated at u = n_lambda * x.  Both diverge as u -> 0+ (like 1/u^2 and 1/u)
and decay as 6/u^4 and 2/u^3 for large u.

They are evaluated by closed forms in terms of Si/Ci:

      I1(u) = 1/u^2 - [ -Ci(u) cos u + (pi/2 - Si(u)) sin u ]
      I2(u) = 1/u   - [  Ci(u) sin u + (pi/2 - Si(u)) cos u ]

``aux_i1`` and ``aux_i2`` take a float or an array of u and evaluate every
element on the same path; a float in gives float fields out.  Their
``est_abs_error`` bounds the absolute error: 1e-15 times the magnitudes of
the value, of the leading term and of Ci(u), plus pi/2 for the absolute
error of pi/2 - Si(u).  It holds with a factor of about 2 to spare against
40-digit mpmath over u in [1e-3, 1e6]; at large u it exceeds the value,
which the closed form gets by cancellation.  Below
sqrt(tiny) ~ 1.5e-154 (I1) and tiny ~ 2.2e-308 (I2) the leading 1/u^2 and
1/u terms leave the float range, and both raise DomainError there.

The two closed forms share one sici and one sin/cos of u (``_aux_parts``).
:func:`chidip.collective.f2` takes its I1/I2 from the same parts, without
the domain check: its own floor on n*x keeps u far above both limits.

The independent check is in the tests, not here: the acceptance gate A8
compares both closed forms over u in [1e-3, 1e3] with 30-digit mpmath
tanh-sinh quadrature of the defining integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from ._arrays import as_floats, first_failing, to_output
from .errors import DomainError

# error scale of the closed forms: scipy's Si(u) and Ci(u) are within
# 3.7 eps (absolute, or relative to |Ci| where |Ci| > 1) of 40-digit mpmath
# on u > 0, the worst in u in [3, 4]; 1e-15 is 4.5 eps, and it also covers
# the rounding of 1/u^2 (1/u) and of the products and sums
_ERR = 1e-15

# smallest u of I1 and I2: u^2 and u still normal, 1/u^2 and 1/u <= 4.5e307
_TINY = float(np.finfo(float).tiny)
_U_MIN_I1 = float(np.sqrt(_TINY))
_U_MIN_I2 = _TINY


@dataclass(frozen=True)
class AuxIntegralResult:
    """Value and absolute error bound; floats for a float u, else arrays."""

    value: float | np.ndarray
    est_abs_error: float | np.ndarray


def _aux_parts(u):
    """The terms that I1(u) = 1/u^2 - p1 and I2(u) = 1/u - p2 share, from
    one sici and one sin/cos: (1/u, p1, p2, |Ci(u)|).

    With tail = pi/2 - Si(u), p1 = tail sin u - Ci cos u and
    p2 = Ci sin u + tail cos u.  No 1/u^2 is formed, so the parts stay
    finite down to the smallest u of I2.
    """
    si, ci = sici(u)
    tail = np.pi / 2 - si
    su, cu = np.sin(u), np.cos(u)
    return 1.0 / u, tail * su - ci * cu, ci * su + tail * cu, np.abs(ci)


def _checked_parts(u, name, u_min):
    """Check u against the domain of I1 or I2 (u >= u_min, finite) and
    return its _aux_parts."""
    u = as_floats(u, DomainError, f"{name} arguments u")
    ok = (u >= u_min) & (u < np.inf)
    if not ok.all():
        bad = first_failing(u, ok)
        if bad > 0.0 and np.isfinite(bad):
            raise DomainError(f"{name} overflows for u < {u_min:.3g}, "
                              f"got {bad}")
        raise DomainError(f"{name} diverges for u <= 0, got {bad}")
    return _aux_parts(u)


def _result(lead, part, abs_ci):
    """lead - part with its error bound; pi/2 stands in for pi/2 - Si(u),
    whose absolute error does not shrink with its value."""
    value = lead - part
    est = _ERR * (np.abs(value) + lead + abs_ci + np.pi / 2)
    return AuxIntegralResult(to_output(value), to_output(est))


def aux_i1(u) -> AuxIntegralResult:
    """I1(u) via the Si/Ci closed form, with an absolute error bound of
    about 1e-15 (1/u^2 + 3); at large u that exceeds I1 ~ 6/u^4."""
    r, p1, _, abs_ci = _checked_parts(u, "I1", _U_MIN_I1)
    return _result(r * r, p1, abs_ci)


def aux_i2(u) -> AuxIntegralResult:
    """I2(u) via the Si/Ci closed form, with an absolute error bound of
    about 1e-15 (1/u + 3); at large u that exceeds I2 ~ 2/u^3."""
    r, _, p2, abs_ci = _checked_parts(u, "I2", _U_MIN_I2)
    return _result(r, p2, abs_ci)
