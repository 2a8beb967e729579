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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidSeparation
from .geometry import GeometryInvariants
from .specfun import aux_i1, aux_i2

# bracket evaluation switches from trig to series below this y = n*x
Y_SERIES = 0.05

# below this y = n*x the 1/y^3 terms of f2 leave the float range
_Y_MIN_F2 = 1e-100

# conventions for mapping (mean index, specific rotation / k) -> (n_L, n_R)
ROTATION_HALF_DIFFERENCE = "half-difference"   # rho = (n_L - n_R)/2
ROTATION_FULL_DIFFERENCE = "difference"        # rho =  n_L - n_R


@dataclass(frozen=True)
class MediumChirality:
    """Circular refractive indices of an absorption-free chiral medium."""

    n_left: float
    n_right: float

    def __post_init__(self):
        for name in ("n_left", "n_right"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be a positive real, got {v}")

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
    """Damping rates and level shifts of the exchange eigenstates at one x."""

    gamma_plus: float
    gamma_minus: float
    delta_plus: float
    delta_minus: float
    f1: float
    f2: float
    delta: float        # delta_plus - delta_minus = 2*f2 (Lamb part cancels)


# ---------------------------------------------------------------------------
# bracket functions with small-argument series

def _f1_brackets_direct(y):
    sy, cy = math.sin(y), math.cos(y)
    b1 = sy / y + cy / y**2 - sy / y**3
    b2 = sy / y + 3 * cy / y**2 - 3 * sy / y**3
    b3 = cy / y - sy / y**2
    return b1, b2, b3


def _f1_brackets_series(y):
    y2 = y * y
    b1 = 2 / 3 + y2 * (-2 / 15 + y2 * (1 / 140 - y2 / 5670))
    b2 = y2 * (-1 / 15 + y2 * (1 / 210 - y2 / 7560))
    b3 = y * (-1 / 3 + y2 * (1 / 30 + y2 * (-1 / 840 + y2 / 45360)))
    return b1, b2, b3


def _f2_brackets_direct(y):
    sy, cy = math.sin(y), math.cos(y)
    d1 = cy / y - sy / y**2 - cy / y**3
    d2 = cy / y - 3 * sy / y**2 - 3 * cy / y**3
    d3 = sy / y + cy / y**2
    return d1, d2, d3


def _f2_brackets_series(y):
    y2 = y * y
    d1 = -1 / y**3 + 1 / (2 * y) + y * (-3 / 8 + y2 * (5 / 144 - 7 * y2 / 5760))
    d2 = -3 / y**3 - 1 / (2 * y) + y * (-1 / 8 + y2 * (1 / 48 - y2 / 1152))
    d3 = 1 / y**2 + 1 / 2 + y2 * (-1 / 8 + y2 * (1 / 144 - y2 / 5760))
    return d1, d2, d3


def _f1_brackets(y):
    return _f1_brackets_series(y) if y < Y_SERIES else _f1_brackets_direct(y)


def _f2_brackets(y):
    return _f2_brackets_series(y) if y < Y_SERIES else _f2_brackets_direct(y)


def _check_x(x):
    if not (math.isfinite(x) and x > 0.0):
        raise InvalidSeparation(f"separation x must be > 0, got {x}")


# ---------------------------------------------------------------------------
# the collective coefficient functions

def f1(x: float, m: MediumChirality, g: GeometryInvariants) -> float:
    """On-shell exchange function (collective decay modifier).

    Smooth in x, -> a*n_bar/2 as x -> 0 and -> 0 as x -> infinity.  For an
    inactive medium (n_left = n_right) the c term cancels between the two
    helicities.
    """
    _check_x(x)
    out = 0.0
    for s, n in m.channels:
        b1, b2, b3 = _f1_brackets(n * x)
        out += (3 * n / 8) * (g.a * b1 - g.b * b2 + s * g.c * b3)
    return out


def f2(x: float, m: MediumChirality, g: GeometryInvariants) -> float:
    """Off-shell exchange function (collective shift; diverges ~1/x^3 as
    x -> 0, the static dipole-dipole limit).

    Raises InvalidSeparation where that divergence is not representable:
    n*x below 1e-100 in either channel, or a non-finite sum.
    """
    _check_x(x)
    out = 0.0
    for s, n in m.channels:
        y = n * x
        if y < _Y_MIN_F2:
            raise InvalidSeparation(
                f"separation x={x} is too small: f2 ~ 1/x^3 overflows")
        d1, d2, d3 = _f2_brackets(y)
        aux = (2 / math.pi) * (aux_i1(y).value / y + aux_i2(y).value / y**2)
        out += (3 * n / 8) * (g.a * d1 - g.b * d2 - s * g.c * (d3 + aux))
    if not math.isfinite(out):
        raise InvalidSeparation(
            f"separation x={x} is too small: f2 ~ 1/x^3 overflows")
    return out


def a_t(x: float, m: MediumChirality, g: GeometryInvariants) -> complex:
    """Exchange coefficient A_T/Gamma0 = -F1 + i*F2."""
    return complex(-f1(x, m, g), f2(x, m, g))


def a_l_damping(m: MediumChirality) -> float:
    """Re(A_L)/Gamma0 = -n_bar/2: single-dipole amplitude decay.

    Depends on the medium only through the mean index.
    """
    return -0.5 * m.n_bar


def lamb_shift(m: MediumChirality, cutoff: LambCutoff) -> float:
    """Cutoff-renormalized single-dipole shift n_bar*ln(Lambda)/(2 pi),
    position independent, in Gamma0 units."""
    return m.n_bar * math.log(cutoff.lambda_cutoff) / (2 * math.pi)


def rate_coefficients(x: float, m: MediumChirality, g: GeometryInvariants,
                      cutoff: LambCutoff | None = None) -> ComplexRateCoefficients:
    """Assemble (a_l, a_t); Im(a_l) is the renormalized shift (0 without a
    cutoff, where only population dynamics are meaningful)."""
    shift = lamb_shift(m, cutoff) if cutoff is not None else 0.0
    return ComplexRateCoefficients(complex(a_l_damping(m), shift),
                                   a_t(x, m, g))


def collective_spectrum(x: float, m: MediumChirality, g: GeometryInvariants,
                        cutoff: LambCutoff | None = None) -> CollectiveSpectrum:
    """Damping rates gamma_pm = n_bar/2 +- F1 and shifts
    delta_pm = delta_lamb +- F2 of the exchange eigenstates.

    Without a cutoff the Lamb part is left out of delta_pm; the splitting
    delta = 2*F2 is unaffected either way.
    """
    f1v = f1(x, m, g)
    f2v = f2(x, m, g)
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
