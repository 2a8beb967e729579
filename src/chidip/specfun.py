"""The auxiliary improper integrals I1 and I2 of the level shift.

The level-shift cross terms need the two Laplace-type integrals

    I1(u) = int_0^inf  xi^3 exp(-xi*u) / (xi^2 + 1)  dxi
    I2(u) = int_0^inf  xi^2 exp(-xi*u) / (xi^2 + 1)  dxi        (u > 0)

evaluated at u = n_lambda * x.  Both diverge as u -> 0+ (like 1/u^2 and 1/u)
and decay as 6/u^4 and 2/u^3 for large u.

They are evaluated with numpy alone, on one of two branches per element:

* u < U_SERIES: the closed forms in Si/Ci,

      I1(u) = 1/u^2 - [ -Ci(u) cos u + (pi/2 - Si(u)) sin u ]
      I2(u) = 1/u   - [  Ci(u) sin u + (pi/2 - Si(u)) cos u ],

  with Si and Ci from their power series (A&S 5.2.14, 5.2.16);
* u >= U_SERIES: a 64-node Gauss-Laguerre rule on the integrals in
  t = xi*u, written in z = 1/u^2,

      I1(u) = z^2     int_0^inf t^3 e^-t / (1 + t^2 z) dt
      I2(u) = z / u   int_0^inf t^2 e^-t / (1 + t^2 z) dt,

  which cancel nothing (the closed forms lose a factor of about u^2) and
  form no u^2, so nothing overflows up to the end of the float range.

Each branch runs on its own elements alone (``_aux``, as f1's brackets do
at their own switch), and the Laguerre rule in blocks of _BLOCK elements,
which caps its (nodes x 2 x elements) products.  The rule's nodes are
summed by one reduction over the node axis, in node order, so an array's
elements are bitwise the float calls'.

``aux_i1`` and ``aux_i2`` take a float or an array of u; a float in gives
float fields out.  Their ``est_abs_error`` is _ERR times the value (times
tiny where the value is smaller): a bound on the relative error, measured
against 40-digit mpmath over u in [1e-3, 1e6].  Below sqrt(tiny) ~ 1.5e-154
(I1) and tiny ~ 2.2e-308 (I2) the leading 1/u^2 and 1/u terms leave the
float range, and both raise DomainError there.

:func:`chidip.collective.f2` takes its I1/I2 from the same ``_aux``,
without the domain check: its own floor on n*x keeps u far above both
limits.

The independent check is in the tests, not here: the acceptance gate A8
compares both integrals over u in [1e-3, 1e3] with 30-digit mpmath
tanh-sinh quadrature of the defining integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from ._arrays import as_floats, first_failing, horner, piecewise, to_output
from .errors import DomainError

# branch switch and sizes: below U_SERIES the Si/Ci series, from U_SERIES
# on the Gauss-Laguerre rule
U_SERIES = 3.0
_N_SERIES = 16    # the last Si/Ci term at u = 3 is below 1e-17
_N_LAGUERRE = 64  # within 1.5e-15 from u = 3; 48 nodes err by 1e-14 at u = 4
_BLOCK = 4096     # elements per block of the Laguerre rule (memory cap)

# relative error bound, 128 eps = 2.8e-14: the worst measured against
# 40-digit mpmath is 68 eps, at u just below U_SERIES, where the closed
# forms cancel most; the Laguerre rule keeps within 7 eps on [3, 1e6]
# (test_error_bound_holds_against_mpmath)
_ERR = 128 * float(np.finfo(float).eps)

# smallest u of I1 and I2: u^2 and u still normal, 1/u^2 and 1/u <= 4.5e307
_TINY = float(np.finfo(float).tiny)
_U_MIN_I1 = float(np.sqrt(_TINY))
_U_MIN_I2 = _TINY

# series tables, one row per power of u^2 (highest first), one column per
# function, each on a trailing axis of length 1 for the (2, n) accumulator:
# Si(u)/u and Ci(u) - gamma - ln u
_SICI = np.array([[[(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))],
                   [(-1) ** k / (2 * k * math.factorial(2 * k)) if k else 0.0]]
                  for k in reversed(range(_N_SERIES))])


def _laguerre(t, n):
    """L_n(t) and L_n(t) - L_(n-1)(t), from the three-term recurrence in
    difference form, d_(k+1) = (k d_k - t L_k) / (k + 1), which keeps the
    small nodes to full relative accuracy."""
    lag, d = 1.0 - t, -t
    for k in range(1, n):
        d = (k * d - t * lag) / (k + 1)
        lag = lag + d
    return lag, d


def _laguerre_rule(n):
    """Nodes t and weights w of the n-node Gauss-Laguerre rule, rounded
    from extended precision: laggauss's nodes after three Newton steps
    (t L_n' = n (L_n - L_(n-1))), and w = t / ((n+1) L_(n+1)(t))^2.
    laggauss's own weights are good to only about 1e-13 at 64 nodes."""
    t = laggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        lag, d = _laguerre(t, n)
        t -= t * lag / (n * d)
    w = t / ((n + 1) * _laguerre(t, n + 1)[0]) ** 2
    return t.astype(float), w.astype(float)


_NODES, _WEIGHTS = _laguerre_rule(_N_LAGUERRE)
# the nodes that matter, largest t (smallest term) first: the 26 nodes
# beyond t = 59 add less than 1e-21 of either integral.  Per node, t^2 and
# the (2, 1) column of its t^3 (I1) and t^2 (I2) weights.
_KEEP = _WEIGHTS * _NODES ** 3 > 1e-20
_SQUARES = (_NODES[_KEEP, None] ** 2)[::-1]
_W_I1_I2 = np.stack([_WEIGHTS * _NODES ** 3, _WEIGHTS * _NODES ** 2],
                    axis=1)[_KEEP, :, None][::-1]


@dataclass(frozen=True)
class AuxIntegralResult:
    """Value and absolute error bound; floats for a float u, else arrays."""

    value: float | np.ndarray
    est_abs_error: float | np.ndarray


def _series(u):
    """(I1, I2) rows for 0 < u < U_SERIES from the Si/Ci closed forms;
    I1 ~ 1/u^2 overflows to inf below sqrt(tiny), silently."""
    acc = horner(_SICI, u * u)
    tail = np.pi / 2 - u * acc[0]           # pi/2 - Si(u)
    ci = acc[1] + (np.euler_gamma + np.log(u))
    su, cu = np.sin(u), np.cos(u)
    r = 1.0 / u
    with np.errstate(over="ignore"):
        acc[0] = r * r - (tail * su - ci * cu)
    acc[1] = r - (ci * su + tail * cu)
    return acc


def _gauss_laguerre(u):
    """(I1, I2) rows for a 1-d u >= U_SERIES from the Laguerre rule, with
    z = 1/u^2 and one row of q = 1 / (t^2 z + 1) per node, _BLOCK elements
    at a time.  The (nodes x 2 x block) products of q and the weights are
    summed by one np.add.reduce over the node axis, which is never the
    inner loop of the reduction (its stride is the largest), so it adds in
    node order for every size of u; a matrix product does not, and an
    array's elements would then differ from the float calls."""
    acc = np.empty((2, u.size))
    # one q and one product buffer for all blocks, each block's views
    # contiguous: fresh ones per block pay their page faults every time,
    # which doubled the cost of an 8000-element call
    q_buffer = np.empty(len(_SQUARES) * min(u.size, _BLOCK))
    p_buffer = np.empty(2 * q_buffer.size)
    for i in range(0, u.size, _BLOCK):
        r = 1.0 / u[i:i + _BLOCK]
        z = r * r
        q = np.multiply(_SQUARES, z,
                        out=q_buffer[:len(_SQUARES) * z.size].reshape(-1, z.size))
        q += 1.0
        np.reciprocal(q, out=q)
        products = np.multiply(_W_I1_I2, q[:, None],
                               out=p_buffer[:2 * q.size].reshape(-1, 2, z.size))
        block = np.add.reduce(products, axis=0)
        block[0] *= z * z
        block[1] *= z * r
        acc[:, i:i + _BLOCK] = block
    return acc


def _aux(u):
    """(I1(u), I2(u)) for an array u > 0 of any shape: the series on the
    elements below U_SERIES, the Laguerre rule on the others."""
    v = u.ravel()
    i1, i2 = piecewise(v < U_SERIES, _series, _gauss_laguerre, v)
    return i1.reshape(u.shape), i2.reshape(u.shape)


def _checked(u, name, u_min):
    """Check u against the domain of I1 or I2 (u >= u_min, finite) and
    return (I1, I2)."""
    u = as_floats(u, DomainError, f"{name} arguments u")
    ok = (u >= u_min) & (u < np.inf)
    if not ok.all():
        bad = first_failing(u, ok)
        if bad > 0.0 and np.isfinite(bad):
            raise DomainError(f"{name} overflows for u < {u_min:.3g}, "
                              f"got {bad}")
        raise DomainError(f"{name} diverges for u <= 0, got {bad}")
    return _aux(u)


def _result(value):
    """value with its error bound; tiny stands in for a subnormal value,
    whose rounding error does not shrink with it."""
    est = _ERR * np.maximum(value, _TINY)
    return AuxIntegralResult(to_output(value), to_output(est))


def aux_i1(u) -> AuxIntegralResult:
    """I1(u), with an absolute error bound of 2.8e-14 |I1(u)|."""
    return _result(_checked(u, "I1", _U_MIN_I1)[0])


def aux_i2(u) -> AuxIntegralResult:
    """I2(u), with an absolute error bound of 2.8e-14 |I2(u)|."""
    return _result(_checked(u, "I2", _U_MIN_I2)[1])
