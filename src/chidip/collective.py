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

For y below Y_SERIES the trigonometric brackets lose ~6 digits to
cancellation of the 1/y^2 and 1/y^3 terms, so they switch to Taylor/Laurent
series (through order y^6); the two paths agree to ~1e-14 at the
switchover.

f1, f2, a_t and collective_spectrum take a float (giving floats) or an
array of x of any shape, with both helicity channels on a trailing axis of
length 2; f2, a_t and collective_spectrum share one pass that yields F1 and
F2.  An invalid x raises InvalidSeparation naming the first offending value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._arrays import as_floats, first_failing, to_output
from .errors import DomainError, InvalidSeparation
from .geometry import GeometryInvariants
from .specfun import _aux_parts

# bracket evaluation switches from trig to series below this y = n*x
Y_SERIES = 0.05

# below this y = n*x (times cbrt(n) for n > 1) the 1/y^3 terms of f2 leave
# the float range
_Y_MIN_F2 = 1e-100

# y = n*x stays below half the float range
_Y_MAX = 0.5 * float(np.finfo(float).max)

# largest refractive index: the closed forms, the Lamb shift and the CLI
# multiply an index by bounded factors below 1e3, so every output stays
# finite with eight orders of headroom
_N_MAX = 1e300

# helicity s of the two channels, in the order (n_left, n_right)
_HELICITY = np.array([1.0, -1.0])

# conventions for mapping (mean index, specific rotation / k) -> (n_L, n_R)
ROTATION_HALF_DIFFERENCE = "half-difference"   # rho = (n_L - n_R)/2
ROTATION_FULL_DIFFERENCE = "difference"        # rho =  n_L - n_R


@dataclass(frozen=True)
class MediumChirality:
    """Circular refractive indices of an absorption-free chiral medium,
    stored as Python floats in (0, 1e300]."""

    n_left: float
    n_right: float

    def __post_init__(self):
        for name in ("n_left", "n_right"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and 0.0 < v <= _N_MAX):
                raise DomainError(f"{name} must be a real in (0, {_N_MAX:g}], "
                                  f"got {v}")
            object.__setattr__(self, name, float(v))

    @property
    def n_bar(self) -> float:
        return 0.5 * (self.n_left + self.n_right)

    @property
    def delta_n(self) -> float:
        return self.n_left - self.n_right

    @property
    def channels(self):
        """(helicity, index) pairs; s = +1 is bound to n_left, -1 to n_right."""
        return ((+1.0, self.n_left), (-1.0, self.n_right))

    @classmethod
    def from_mean_and_rotation(cls, n_bar: float, rotation: float,
                               convention: str = ROTATION_HALF_DIFFERENCE):
        """Build a medium from the mean index and the specific rotation
        divided by the wave vector.

        Two readings of the rotation parameter are supported:
        ``"half-difference"`` (rho = (n_L - n_R)/2, the default) and
        ``"difference"`` (rho = n_L - n_R).  See the README for why the
        half-difference convention is the default.
        """
        if not all(isinstance(v, numbers.Real) for v in (n_bar, rotation)):
            raise DomainError(f"non-real n_bar or rotation: {n_bar!r}, {rotation!r}")
        if convention == ROTATION_HALF_DIFFERENCE:
            half = rotation
        elif convention == ROTATION_FULL_DIFFERENCE:
            half = 0.5 * rotation
        else:
            raise DomainError(f"unknown rotation convention {convention!r}")
        return cls(n_bar + half, n_bar - half)


@dataclass(frozen=True)
class LambCutoff:
    """Dimensionless renormalization cutoff Lambda = m_e c / (hbar k0)."""

    lambda_cutoff: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_cutoff) and self.lambda_cutoff > 1.0):
            raise DomainError(
                f"lambda_cutoff must be > 1, got {self.lambda_cutoff}")


@dataclass(frozen=True)
class ComplexRateCoefficients:
    """Single-dipole (a_l) and exchange (a_t) coefficients in Gamma0 units.

    Real parts damp, imaginary parts shift; Im(a_l) holds the renormalized
    finite shift, never the bare divergent integral.
    """

    a_l: complex
    a_t: complex


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
# bracket functions with small-argument series

# Below Y_SERIES the brackets are power series in y^2 (times a power of y):
#   b1 = 2/3 - 2 y^2/15 + y^4/140 - y^6/5670
#   b2 = -y^2/15 + y^4/210 - y^6/7560
#   b3 = y (-1/3 + y^2/30 - y^4/840 + y^6/45360)
#   d1 = y^-3 (-1 + y^2/2 - 3 y^4/8 + 5 y^6/144 - 7 y^8/5760)
#   d2 = y^-3 (-3 - y^2/2 - y^4/8 + y^6/48 - y^8/1152)
#   d3 = y^-2 (1 + y^2/2 - y^4/8 + y^6/144 - y^8/5760)
# Each table holds the coefficients of the three series, one column per
# bracket, highest power first, so one Horner pass evaluates all three.
_F1_SERIES = np.array([[-1 / 5670, -1 / 7560, 1 / 45360],
                       [1 / 140, 1 / 210, -1 / 840],
                       [-2 / 15, -1 / 15, 1 / 30],
                       [2 / 3, 0.0, -1 / 3]])
_F2_SERIES = np.array([[-7 / 5760, -1 / 1152, -1 / 5760],
                       [5 / 144, 1 / 48, 1 / 144],
                       [-3 / 8, -1 / 8, -1 / 8],
                       [1 / 2, -1 / 2, 1 / 2],
                       [-1.0, -3.0, 1.0]])


def _series(y, table):
    """The three series of table at y, stacked on a new last axis."""
    y2 = np.square(y)[..., None]
    acc = table[0]
    for row in table[1:]:
        acc = acc * y2 + row
    return acc


def _brackets_direct(y, with_f2):
    sy, cy, u = np.sin(y), np.cos(y), 1.0 / y
    b3 = u * (cy - u * sy)              # cos y/y - sin y/y^2
    b1 = u * (sy + b3)                  # sin y/y + cos y/y^2 - sin y/y^3
    b2 = u * (sy + 3 * b3)              # sin y/y + 3 cos y/y^2 - 3 sin y/y^3
    if not with_f2:
        return b1, b2, b3
    d3 = u * (sy + u * cy)              # sin y/y + cos y/y^2
    d1 = u * (cy - d3)                  # cos y/y - sin y/y^2 - cos y/y^3
    d2 = u * (cy - 3 * d3)              # cos y/y - 3 sin y/y^2 - 3 cos y/y^3
    return b1, b2, b3, d1, d2, d3


def _brackets_series(y, with_f2):
    p = _series(y, _F1_SERIES)
    b = p[..., 0], p[..., 1], y * p[..., 2]
    if not with_f2:
        return b
    p = _series(y, _F2_SERIES)
    u2 = 1.0 / np.square(y)
    u3 = u2 / y
    return b + (u3 * p[..., 0], u3 * p[..., 1], u2 * p[..., 2])


def _brackets(y, with_f2):
    """f1's brackets (b1, b2, b3), then f2's (d1, d2, d3) if with_f2: the
    series below Y_SERIES, the trig forms (one sin/cos) elsewhere; Y_SERIES
    stands in for the other side's arguments, so neither form overflows."""
    lo = _brackets_series(np.minimum(y, Y_SERIES), with_f2)
    hi = _brackets_direct(np.maximum(y, Y_SERIES), with_f2)
    small = y < Y_SERIES
    for a, b in zip(lo, hi):
        np.copyto(b, a, where=small)
    return hi


def _channels(x, m):
    """Check x and return (x, n, y): the channel indices n = (n_left,
    n_right) and y = n*x on a trailing axis of length 2."""
    x = as_floats(x, InvalidSeparation, "separation x")
    n = np.array([m.n_left, m.n_right])
    ok = (x > 0.0) & (x < _Y_MAX / max(m.n_left, m.n_right))
    if not ok.all():
        bad = first_failing(x, ok)
        if bad > 0.0 and np.isfinite(bad):
            raise InvalidSeparation(
                f"separation x={bad} is too large: n*x must stay below "
                f"{_Y_MAX:.3g}")
        raise InvalidSeparation(f"separation x must be > 0, got {bad}")
    return x, n, np.multiply.outer(x, n)


# ---------------------------------------------------------------------------
# the collective coefficient functions

def _channel_sum(n, g, b1, b2, b3):
    """sum over both channels of (3n/8) (a b1 - b b2 + s c b3)."""
    terms = (3 * n / 8) * (g.a * b1 - g.b * b2 + g.c * _HELICITY * b3)
    return to_output(terms[..., 0] + terms[..., 1])


def _exchange(x, m, g):
    """(F1, F2) from one check of x, one _brackets and one _aux_parts."""
    x, n, y = _channels(x, m)
    ok = x >= max(_Y_MIN_F2 * max(v, 1.0) ** (1 / 3) / v
                  for v in (m.n_left, m.n_right))
    if not ok.all():
        raise InvalidSeparation(
            f"separation x={first_failing(x, ok)} is too small: "
            f"f2 ~ 1/x^3 overflows")
    b1, b2, b3, d1, d2, d3 = _brackets(y, with_f2=True)
    u, p1, p2, _ = _aux_parts(y)        # I1 = u^2 - p1, I2 = u - p2
    aux = (2 / np.pi) * u * (u * u - p1 + u * (u - p2))
    # the c term of F2 is -s c (d3 + aux)
    return (_channel_sum(n, g, b1, b2, b3),
            _channel_sum(n, g, d1, d2, -(d3 + aux)))


def f1(x, m: MediumChirality, g: GeometryInvariants):
    """On-shell exchange function (collective decay modifier).

    Smooth in x, -> a*n_bar/2 as x -> 0 and -> 0 as x -> infinity.  For an
    inactive medium (n_left = n_right) the c term cancels between the two
    helicities.  x is a float or an array; a float gives a float.
    """
    x, n, y = _channels(x, m)
    return _channel_sum(n, g, *_brackets(y, with_f2=False))


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


def rate_coefficients(x, m: MediumChirality, g: GeometryInvariants,
                      cutoff: LambCutoff | None = None) -> ComplexRateCoefficients:
    """Assemble (a_l, a_t); Im(a_l) is the renormalized shift (0 without a
    cutoff, where only population dynamics are meaningful)."""
    shift = lamb_shift(m, cutoff) if cutoff is not None else 0.0
    return ComplexRateCoefficients(complex(a_l_damping(m), shift),
                                   a_t(x, m, g))


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
