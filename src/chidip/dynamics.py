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
"""

from __future__ import annotations

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
    z = coeff * times
    out = np.exp(np.where(z.real < _EXP_FLOOR, -np.inf, z))
    # exp(-inf + i*phase) is nan in complex arithmetic; force exact zero
    return np.where(z.real < _EXP_FLOOR, 0.0 + 0.0j, out)


def evolve(a_l: complex, a_t: complex, times: ArrayLike) -> AmplitudeTrajectory:
    """Evaluate the closed-form dynamics on an ascending time grid.

    a_l, a_t are in Gamma0 units; raises UnphysicalRates if either exchange
    eigenmode would grow (Re(a_l) + |Re(a_t)| > 0) and DomainError for a
    non-finite, negative or unsorted time grid.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if np.any(t < 0.0) or np.any(np.diff(t) < 0.0):
        raise DomainError("times must be non-negative and sorted ascending")
    if complex(a_l).real + abs(complex(a_t).real) > 0.0:
        raise UnphysicalRates(
            f"growing mode: Re(a_l)={complex(a_l).real} with "
            f"|Re(a_t)|={abs(complex(a_t).real)}")

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
