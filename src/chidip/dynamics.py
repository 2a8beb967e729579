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

``interaction_energy_at`` gives E_int at one time for a whole array of A_T
(one per separation) without the amplitudes.  With f1 = -Re(A_T),
f2 = Im(A_T), n_bar = -2 Re(A_L), |C_pm|^2 = exp(-(n_bar +- 2 f1) t)/2, so

    E_int = sign(f1) f2 exp(-(n_bar - 2|f1|) t) (-expm1(-4|f1| t)),

which neither overflows nor loses digits to cancellation when f1 ~ 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import DomainError, UnphysicalRates

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
    out = np.exp(np.where(dead, -np.inf, z))
    # exp(-inf + i*phase) is nan in complex arithmetic; force exact zero
    return np.where(dead, 0.0 + 0.0j, out)


def _checked_times(a_l: complex, a_t: ArrayLike,
                   times: ArrayLike) -> np.ndarray:
    """The time grid as a 1-d array, after the checks evolve documents."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if np.any(t < 0.0) or np.any(np.diff(t) < 0.0):
        raise DomainError("times must be non-negative and sorted ascending")
    if not (cmath.isfinite(complex(a_l)) and np.all(np.isfinite(a_t))):
        raise DomainError(f"a_l and a_t must be finite, got {a_l}, {a_t}")
    re_l = complex(a_l).real
    re_t = float(np.max(np.abs(np.real(a_t))))
    if re_l + re_t > 0.0:
        raise UnphysicalRates(
            f"growing mode: Re(a_l)={re_l} with |Re(a_t)|={re_t}")
    return t


def evolve(a_l: complex, a_t: complex, times: ArrayLike) -> AmplitudeTrajectory:
    """Evaluate the closed-form dynamics on an ascending time grid.

    a_l, a_t are in Gamma0 units; raises UnphysicalRates if either exchange
    eigenmode would grow (Re(a_l) + |Re(a_t)| > 0) and DomainError for
    non-finite rates (or a_l +- a_t beyond the float range), for a
    non-finite, negative or unsorted time grid, and for a phase
    Im(a_l +- a_t) * t beyond the float range on an amplitude that has not
    decayed to exact zero.
    """
    t = _checked_times(a_l, a_t, times)
    a_l, a_t = complex(a_l), complex(a_t)
    exp_plus = _damped_exponential(a_l + a_t, t)
    exp_minus = _damped_exponential(a_l - a_t, t)
    c_plus = exp_plus / _SQRT2
    c_minus = exp_minus / _SQRT2
    c1 = 0.5 * (exp_plus + exp_minus)
    c2 = 0.5 * (exp_plus - exp_minus)
    e_int = interaction_energy(a_t, c_plus, c_minus)
    return AmplitudeTrajectory(t, c1, c2, c_plus, c_minus, e_int)


def interaction_energy(a_t: complex, c_plus: ArrayLike,
                       c_minus: ArrayLike) -> np.ndarray:
    """E_int = -2 Im(A_T) (|C_+|^2 - |C_-|^2) in units of hbar*Gamma0.

    Zero whenever Im(A_T) = 0 or the two exchange populations are equal
    (in particular at t = 0).
    """
    pop_diff = np.abs(np.asarray(c_plus)) ** 2 - np.abs(np.asarray(c_minus)) ** 2
    return -2.0 * complex(a_t).imag * pop_diff


def interaction_energy_at(a_l: complex, a_t: ArrayLike,
                          time: float) -> np.ndarray:
    """E_int at one time for each exchange coefficient in a_t, in units of
    hbar*Gamma0; equal to ``evolve(a_l, a_t, [time]).e_int[0]`` for each.

    Raises as evolve does: UnphysicalRates if any a_t gives a growing mode,
    DomainError for non-finite rates or a negative or non-finite time.
    """
    a_t = np.asarray(a_t, dtype=complex)
    (t,) = _checked_times(a_l, a_t, time)
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
