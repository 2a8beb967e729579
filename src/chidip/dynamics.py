"""Closed-form excitation dynamics and interaction energy.

With dipole 1 initially excited (C1(0) = 1, C2(0) = 0) the amplitude
equations integrate to

    C1(t) = exp(A_L t) cosh(A_T t),      C2(t) = exp(A_L t) sinh(A_T t),

equivalently, in the symmetric/antisymmetric exchange basis,

    C_pm(t) = exp((A_L +- A_T) t) / sqrt(2),

and the interaction energy carried by the pair is

    E_int(t) = -2 Im(A_T) (|C_+|^2 - |C_-|^2)        [units of hbar*Gamma0].

Everything is evaluated by direct exponentiation (no ODE integrator): the
solution is exact, and computing C1, C2 from the two exponentials avoids
cosh/sinh overflow at large |A_T| t.  times are in units of 1/Gamma0.

E_int is not taken from the amplitudes but from its closed form: with
f1 = -Re(A_T), f2 = Im(A_T), n_bar = -2 Re(A_L),
|C_pm|^2 = exp(-(n_bar +- 2 f1) t)/2, so

    E_int = sign(f1) f2 exp(-(n_bar - 2|f1|) t) (-expm1(-4|f1| t)),

which neither overflows nor loses digits to cancellation when f1 ~ 0.
``evolve`` evaluates it over its time grid, and ``interaction_energy_at``
at one time for a whole array of A_T (one per separation), without the
amplitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._arrays import as_floats
from .errors import DomainError, UnphysicalRates

if TYPE_CHECKING:  # annotations only: numpy.typing is slow to import
    from numpy.typing import ArrayLike

# below this Re exponent exp() underflows; flush the amplitude to exact zero
_EXP_FLOOR = -700.0

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Sampled amplitudes of the two-dipole single-excitation manifold."""

    times: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    e_int: np.ndarray

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.c1) ** 2

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.c2) ** 2

    @property
    def p_plus(self) -> np.ndarray:
        return np.abs(self.c_plus) ** 2

    @property
    def p_minus(self) -> np.ndarray:
        return np.abs(self.c_minus) ** 2


def _damped_exponential(coeff: complex, times: np.ndarray) -> np.ndarray:
    if not cmath.isfinite(coeff):
        raise DomainError(f"a_l +- a_t = {coeff} is beyond the float range")
    # Re(coeff) <= 0 after the growing-mode check, so Re(z) can only
    # overflow to -inf, where the amplitude is exactly 0
    with np.errstate(over="ignore"):
        z = coeff * times
    dead = z.real < _EXP_FLOOR
    # times ascend, so |Im(z)| is largest at the last time; only if that
    # overflows can a phase that still matters be out of range
    if not (math.isfinite(coeff.imag * float(times[-1]))
            or np.all(dead | np.isfinite(z.imag))):
        raise DomainError(f"the phase Im({coeff}) * t exceeds the float range")
    # a dead amplitude drops its phase: exp(-inf + 0j) is exactly 0
    return np.exp(np.where(dead, -np.inf, z))


def _checked_inputs(a_l, a_t, times):
    """a_l as a complex, a_t as a complex array and the time grid as a 1-d
    float array, after the checks evolve documents."""
    a_l = as_floats(a_l, DomainError, "a_l", dtype=complex)
    a_t = as_floats(a_t, DomainError, "a_t", dtype=complex)
    t = np.atleast_1d(as_floats(times, DomainError, "times"))
    if a_l.ndim != 0:
        raise DomainError(f"a_l must be one number, got {a_l!r}")
    if t.ndim != 1 or t.size == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if np.any(t < 0.0) or np.any(np.diff(t) < 0.0):
        raise DomainError("times must be non-negative and sorted ascending")
    a_l = complex(a_l)
    if not (cmath.isfinite(a_l) and np.all(np.isfinite(a_t))):
        raise DomainError(f"a_l and a_t must be finite, got {a_l}, {a_t}")
    re_t = float(np.max(np.abs(a_t.real), initial=0.0))
    if a_l.real + re_t > 0.0:
        raise UnphysicalRates(
            f"growing mode: Re(a_l)={a_l.real} with |Re(a_t)|={re_t}")
    return a_l, a_t, t


def evolve(a_l: complex, a_t: complex, times: ArrayLike) -> AmplitudeTrajectory:
    """Evaluate the closed-form dynamics on an ascending time grid.

    a_l, a_t are in Gamma0 units; raises UnphysicalRates if either exchange
    eigenmode would grow (Re(a_l) + |Re(a_t)| > 0) and DomainError for
    non-finite rates (or a_l +- a_t beyond the float range), for a
    non-finite, negative or unsorted time grid, and for a phase
    Im(a_l +- a_t) * t beyond the float range on an amplitude that has not
    decayed to exact zero.
    """
    a_l, a_t, t = _checked_inputs(a_l, a_t, times)
    if a_t.ndim != 0:
        raise DomainError(f"a_t must be one number, got {a_t!r}")
    a_t = complex(a_t)
    exp_plus = _damped_exponential(a_l + a_t, t)
    exp_minus = _damped_exponential(a_l - a_t, t)
    c_plus = exp_plus / _SQRT2
    c_minus = exp_minus / _SQRT2
    c1 = 0.5 * (exp_plus + exp_minus)
    c2 = 0.5 * (exp_plus - exp_minus)
    return AmplitudeTrajectory(t, c1, c2, c_plus, c_minus,
                               _interaction_energy(a_l, a_t, t))


def interaction_energy_at(a_l: complex, a_t: ArrayLike,
                          time: float) -> np.ndarray:
    """E_int at one time for each exchange coefficient in a_t, in units of
    hbar*Gamma0; equal to ``evolve(a_l, a_t, [time]).e_int[0]`` for each.

    Raises as evolve does: UnphysicalRates if any a_t gives a growing mode,
    DomainError for non-finite rates or a negative or non-finite time, or
    for more than one time.  An empty a_t gives an empty array.
    """
    a_l, a_t, t = _checked_inputs(a_l, a_t, time)
    if t.size != 1:
        raise DomainError(f"time must be one number, got {time!r}")
    return _interaction_energy(a_l, a_t, t[0])


def _interaction_energy(a_l: complex, a_t: np.ndarray, t) -> np.ndarray:
    """The closed-form E_int (module docstring), broadcast over a_t and t."""
    f1, f2 = -a_t.real, a_t.imag
    r = np.abs(f1)
    # both exponents are <= 0 after the growing-mode check, so a product
    # can only overflow to -inf, where exp and expm1 take their exact
    # limits 0 and -1; the power-of-two factors go last so that an
    # overflow never meets t = 0
    with np.errstate(over="ignore"):
        decay = np.exp(2 * ((complex(a_l).real + r) * t))
        rise = -np.expm1(-4 * (r * t))
    return np.sign(f1) * f2 * decay * rise
