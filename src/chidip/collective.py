"""Closed-form collective coefficients for two dipoles in a chiral medium.

A transparent, absorption-free, optically active medium is described by the
pair of circular refractive indices (n_left, n_right); left circular
polarization carries the helicity label s = +1 and right circular s = -1.
All rates and shifts are returned in units of Gamma0, the free-space
spontaneous emission rate of a single dipole, and all lengths enter through
the dimensionless separation x = k0*R.

The exchange coefficient splits into an on-shell part F1 (collective decay)
and an off-shell part F2 (collective shift).  With y = n_lambda * x and the
geometry invariants (a, b, c):

    F1 = sum_lambda (3 n/8) { a [sin y/y + cos y/y^2 - sin y/y^3]
                            - b [sin y/y + 3 cos y/y^2 - 3 sin y/y^3]
                            + s c [cos y/y - sin y/y^2] }

    F2 = sum_lambda (3 n/8) { a [cos y/y - sin y/y^2 - cos y/y^3]
                            - b [cos y/y - 3 sin y/y^2 - 3 cos y/y^3]
                            - s c [sin y/y + cos y/y^2]
                            - s c (2/pi) [I1(y)/y + I2(y)/y^2] }

The symmetric/antisymmetric exchange eigenstates then damp at
gamma_pm = n_bar/2 +- F1 and shift by delta_pm = delta_lamb +- F2, where
delta_lamb = n_bar ln(Lambda)/(2 pi) is the cutoff-renormalized
single-dipole shift (position independent; it cancels in the splitting
delta_plus - delta_minus = 2 F2).

F2's brackets are F1's a quarter period on: F1's (b1, b2, b3) are
(u (s + t), u (s + 3t), t) with t = u (c - u s), u = 1/y, (s, c) =
(sin y, cos y), and (s, c) = (cos y, -sin y) gives F2's (d1, d2, -d3).
F2's brackets cancel nothing, so they take the trig form at every y.
F1's cancel terms of size 1/y^3 down to O(1) or O(y^2), so each element
below Y_SERIES = 2 takes their 12-term Taylor series instead; the two forms
agree to ~2e-16 there.  I1/I2 switch separately, at specfun.U_SERIES.

f1, f2, a_t and collective_spectrum take a float (giving floats) or an
array of x of any shape, with both helicity channels on a trailing axis of
length 2; f2, a_t and collective_spectrum share one pass that yields F1 and
F2.  An invalid x raises InvalidSeparation naming the first offending value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import (as_floats, first_failing, horner, one_float, piecewise,
                      to_output)
from .errors import DomainError, InvalidSeparation
from .geometry import GeometryInvariants
from .specfun import _aux

# f1's brackets switch from trig to series below this y = n*x
Y_SERIES = 2.0

# below this y = n*x (times cbrt(n) for n > 1) the 1/y^3 terms of f2 leave
# the float range
_Y_MIN_F2 = 1e-100

_FLOAT_MAX = float(np.finfo(float).max)

# y = n*x stays below half the float range
_Y_MAX = 0.5 * _FLOAT_MAX

# largest refractive index: the closed forms, the Lamb shift and the CLI
# multiply an index by bounded factors below 1e3, so every output stays
# finite with eight orders of headroom
_N_MAX = 1e300


@dataclass(frozen=True)
class MediumChirality:
    """Circular refractive indices of an absorption-free chiral medium,
    stored as Python floats in (0, 1e300]; an index that is not one number
    by the rule of the closed forms' x (``as_floats``) is a DomainError."""

    n_left: float
    n_right: float

    def __post_init__(self):
        for name in ("n_left", "n_right"):
            v = one_float(getattr(self, name), DomainError, name)
            if not 0.0 < v <= _N_MAX:
                raise DomainError(f"{name} must be a real in (0, {_N_MAX:g}], "
                                  f"got {v}")
            object.__setattr__(self, name, v)

    @property
    def n_bar(self) -> float:
        return 0.5 * (self.n_left + self.n_right)

    @property
    def channels(self):
        """(helicity, index) pairs; s = +1 is bound to n_left, -1 to n_right."""
        return ((+1.0, self.n_left), (-1.0, self.n_right))

    @classmethod
    def from_mean_and_rotation(cls, n_bar: float, rotation: float):
        """Build a medium from the mean index and the specific rotation
        divided by the wave vector, read as half the index difference:
        (n_left, n_right) = (n_bar + rotation, n_bar - rotation).  For the
        other reading, rotation = n_left - n_right, pass rotation / 2; the
        README explains why the half-difference reading is the one used.
        Each argument is checked as an index is; a sum beyond the float
        range is inf, which the index range refuses.
        """
        n_bar = one_float(n_bar, DomainError, "n_bar")
        rotation = one_float(rotation, DomainError, "rotation")
        return cls(n_bar + rotation, n_bar - rotation)


@dataclass(frozen=True)
class LambCutoff:
    """Dimensionless renormalization cutoff Lambda = m_e c / (hbar k0),
    stored as a Python float in (1, float max] and checked as an index of
    MediumChirality is."""

    lambda_cutoff: float

    def __post_init__(self):
        v = one_float(self.lambda_cutoff, DomainError, "lambda_cutoff")
        if not 1.0 < v <= _FLOAT_MAX:
            raise DomainError(f"lambda_cutoff must be a finite real > 1, "
                              f"got {v!r}")
        object.__setattr__(self, "lambda_cutoff", v)


@dataclass(frozen=True)
class CollectiveSpectrum:
    """Damping rates and level shifts of the exchange eigenstates; floats
    at one x, arrays over an array of x."""

    gamma_plus: float
    gamma_minus: float
    delta_plus: float
    delta_minus: float
    f1: float
    f2: float
    delta: float        # delta_plus - delta_minus = 2*f2 (Lamb part cancels)


# ---------------------------------------------------------------------------
# bracket functions; f1's with a small-argument series

# Below Y_SERIES f1's brackets j0 - j1/y, j0 - 3 j1/y and -j1 are series
# in y^2 (b3 times y); with j = 2m + 3, m < 12, the coefficients of y^(2m)
# are the exact int / int ratios
#   b1: (-1)^m ((j-1) j - j + 1) / j!       2/3, -2/15, 1/140, ...
#   b2: (-1)^m ((j-1) j - 3 j + 3) / j!     0, -1/15, 1/210, ...
#   b3 / y: -(-1)^m (j - 1) / j!            -1/3, 1/30, -1/840, ...
# one row per power (highest first), one (1-long) column per bracket; the
# first term left out is below 1.1e-18 at y = 2.
_F1_SERIES = np.array([
    [[(-1) ** (j // 2 - 1) * ((j - 1) * j - j + 1) / math.factorial(j)],
     [(-1) ** (j // 2 - 1) * ((j - 1) * j - 3 * j + 3) / math.factorial(j)],
     [(-1) ** (j // 2) * (j - 1) / math.factorial(j)]]
    for j in range(25, 1, -2)])


def _trig(s, c, u):
    """(u (s + t), u (s + 3t), t) with t = u (c - u s): f1's brackets at
    (s, c) = (sin y, cos y), f2's (d1, d2, -d3) at (cos y, -sin y)."""
    t = u * (c - u * s)
    return u * (s + t), u * (s + 3 * t), t


def _f1_series(y):
    """f1's (b1, b2, b3) rows for a 1-d y below Y_SERIES."""
    b = horner(_F1_SERIES, y * y)
    b[2] *= y
    return b


def _f1_direct(y):
    return _trig(np.sin(y), np.cos(y), 1.0 / y)


def _brackets(y):
    """f1's brackets (b1, b2, b3) at an array y > 0 of any shape: the
    series on the elements below Y_SERIES, the trig forms on the others."""
    v = y.ravel()
    b = piecewise(v < Y_SERIES, _f1_series, _f1_direct, v)
    return tuple(row.reshape(y.shape) for row in b)


def _channels(x, m):
    """Check x and return (x, s, n, y): the helicities s and indices n of
    m.channels and y = n*x, on a trailing axis of length 2."""
    x = as_floats(x, InvalidSeparation, "separation x")
    s, n = np.array(m.channels).T
    ok = (x > 0.0) & (x < _Y_MAX / max(m.n_left, m.n_right))
    if not ok.all():
        bad = first_failing(x, ok)
        if bad > 0.0 and np.isfinite(bad):
            raise InvalidSeparation(
                f"separation x={bad} is too large: n*x must stay below "
                f"{_Y_MAX:.3g}")
        raise InvalidSeparation(f"separation x must be > 0, got {bad}")
    return x, s, n, np.multiply.outer(x, n)


# ---------------------------------------------------------------------------
# the collective coefficient functions

def _channel_sum(s, n, g, b1, b2, b3):
    """sum over both channels of (3n/8) (a b1 - b b2 + s c b3)."""
    terms = (3 * n / 8) * (g.a * b1 - g.b * b2 + g.c * s * b3)
    return to_output(terms[..., 0] + terms[..., 1])


def _exchange(x, m, g):
    """(F1, F2) from one check of x, _brackets, _trig and one _aux."""
    x, s, n, y = _channels(x, m)
    ok = x >= max(_Y_MIN_F2 * max(v, 1.0) ** (1 / 3) / v
                  for v in (m.n_left, m.n_right))
    if not ok.all():
        raise InvalidSeparation(
            f"separation x={first_failing(x, ok)} is too small: "
            f"f2 ~ 1/x^3 overflows")
    u = 1.0 / y
    d1, d2, minus_d3 = _trig(np.cos(y), -np.sin(y), u)
    i1, i2 = _aux(y)
    aux = (2 / np.pi) * u * (i1 + u * i2)   # (2/pi)(I1(y)/y + I2(y)/y^2)
    # the c term of F2 is -s c (d3 + aux) = s c (-d3 - aux)
    return (_channel_sum(s, n, g, *_brackets(y)),
            _channel_sum(s, n, g, d1, d2, minus_d3 - aux))


def f1(x, m: MediumChirality, g: GeometryInvariants):
    """On-shell exchange function (collective decay modifier).

    Smooth in x, -> a*n_bar/2 as x -> 0 and -> 0 as x -> infinity.  For an
    inactive medium (n_left = n_right) the c term cancels between the two
    helicities.  x is a float or an array; a float gives a float.
    """
    x, s, n, y = _channels(x, m)
    return _channel_sum(s, n, g, *_brackets(y))


def f2(x, m: MediumChirality, g: GeometryInvariants):
    """Off-shell exchange function (collective shift; diverges ~1/x^3 as
    x -> 0, the static dipole-dipole limit).  x is a float or an array; a
    float gives a float.

    Raises InvalidSeparation where that divergence is not representable:
    n*x below 1e-100 * cbrt(max(n, 1)) in either channel, which keeps
    (3n/8)/(n*x)^3 below 4e299.
    """
    return _exchange(x, m, g)[1]


def a_t(x, m: MediumChirality, g: GeometryInvariants):
    """Exchange coefficient A_T/Gamma0 = -F1 + i*F2 (complex, or a complex
    array for an array x)."""
    f1v, f2v = _exchange(x, m, g)
    return -f1v + 1j * f2v


def a_l_damping(m: MediumChirality) -> float:
    """Re(A_L)/Gamma0 = -n_bar/2: single-dipole amplitude decay.

    Depends on the medium only through the mean index.
    """
    return -0.5 * m.n_bar


def lamb_shift(m: MediumChirality, cutoff: LambCutoff) -> float:
    """Cutoff-renormalized single-dipole shift n_bar*ln(Lambda)/(2 pi),
    position independent, in Gamma0 units."""
    return m.n_bar * math.log(cutoff.lambda_cutoff) / (2 * math.pi)


def collective_spectrum(x, m: MediumChirality, g: GeometryInvariants,
                        cutoff: LambCutoff | None = None) -> CollectiveSpectrum:
    """Damping rates gamma_pm = n_bar/2 +- F1 and shifts
    delta_pm = delta_lamb +- F2 of the exchange eigenstates.

    Without a cutoff the Lamb part is left out of delta_pm; the splitting
    delta = 2*F2 is unaffected either way.  For an array x every field is
    an array of the same shape.
    """
    f1v, f2v = _exchange(x, m, g)
    lamb = lamb_shift(m, cutoff) if cutoff is not None else 0.0
    return CollectiveSpectrum(
        gamma_plus=0.5 * m.n_bar + f1v,
        gamma_minus=0.5 * m.n_bar - f1v,
        delta_plus=lamb + f2v,
        delta_minus=lamb - f2v,
        f1=f1v,
        f2=f2v,
        delta=2 * f2v,
    )
