"""Two-dipole configuration and the scalar invariants derived from it.

Every closed-form expression in this package depends on the geometry only
through three scalar contractions of the dipole orientations d1_hat, d2_hat
and the interdipole axis r_hat:

    a = d2_hat . d1_hat
    b = (d2_hat . r_hat)(r_hat . d1_hat)
    c = (d2_hat x d1_hat) . r_hat

The axis convention is r_hat = (r1 - r2)/R, pointing from dipole 2 to
dipole 1.  Flipping r_hat flips the sign of c (and thereby swaps the roles
of the two circular polarizations in the cross terms) while leaving a and b
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._arrays import as_floats, one_float
from .errors import InvalidGeometry, InvalidSeparation

if TYPE_CHECKING:  # annotations only: numpy.typing is slow to import
    from numpy.typing import ArrayLike

_UNIT_TOL = 1e-12


def _vector(v: ArrayLike, name: str) -> np.ndarray:
    """v as a finite real 3-vector, else InvalidGeometry."""
    v = as_floats(v, InvalidGeometry, name)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise InvalidGeometry(f"{name} must be a finite 3-vector, got {v!r}")
    return v


def _separation(x) -> float:
    """x as a positive finite Python float, else InvalidSeparation."""
    value = one_float(x, InvalidSeparation, "separation x")
    if not 0.0 < value < np.inf:
        raise InvalidSeparation(f"separation x must be > 0, got {x}")
    return value


def _unit(v: ArrayLike, name: str) -> np.ndarray:
    v = _vector(v, name)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if v.any() and not 1e-150 < norm < np.inf:
        # the squares over- or underflow: scale to the largest first
        v = v / np.max(np.abs(v))
        norm = np.linalg.norm(v)
    if norm == 0.0:
        raise InvalidGeometry(f"{name} must be nonzero")
    return v / norm


@dataclass(frozen=True)
class DipoleGeometry:
    """Unit orientations of the two dipoles, unit interdipole axis, and
    dimensionless separation x = k0*R."""

    d1_hat: np.ndarray
    d2_hat: np.ndarray
    r_hat: np.ndarray
    x: float

    def __post_init__(self):
        for name in ("d1_hat", "d2_hat", "r_hat"):
            v = _vector(getattr(self, name), name)
            # math.hypot cannot overflow (np.linalg.norm's sum of squares
            # can, with a RuntimeWarning) and costs a fraction of it
            if abs(math.hypot(*v) - 1.0) > _UNIT_TOL:
                raise InvalidGeometry(f"{name} must be a unit 3-vector")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "x", _separation(self.x))


@dataclass(frozen=True)
class GeometryInvariants:
    """The three scalar contractions a, b, c; each lies in [-1, 1]."""

    a: float
    b: float
    c: float


def normalize_geometry(d1: ArrayLike, d2: ArrayLike, axis: ArrayLike,
                       x: float) -> DipoleGeometry:
    """Build a DipoleGeometry from unnormalized vectors.

    Raises InvalidGeometry unless each vector is a nonzero finite real
    3-vector, and InvalidSeparation unless x is one real number > 0 and
    finite.
    """
    x = _separation(x)
    return DipoleGeometry(_unit(d1, "d1"), _unit(d2, "d2"),
                          _unit(axis, "axis"), x)


def geometry_factors(g: DipoleGeometry) -> GeometryInvariants:
    """Reduce a geometry to the invariants (a, b, c).

    Invariant under simultaneous rotation of all three vectors; swapping
    the dipoles or flipping the axis flips the sign of c only.
    """
    a = float(g.d2_hat @ g.d1_hat)
    b = float((g.d2_hat @ g.r_hat) * (g.r_hat @ g.d1_hat))
    # d2_hat x d1_hat by components: np.cross costs ~25 us on a 3-vector
    d1, d2 = g.d1_hat, g.d2_hat
    cross = np.array([d2[1] * d1[2] - d2[2] * d1[1],
                      d2[2] * d1[0] - d2[0] * d1[2],
                      d2[0] * d1[1] - d2[1] * d1[0]])
    c = float(cross @ g.r_hat)
    return GeometryInvariants(a, b, c)
