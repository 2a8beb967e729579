import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from chidip import DomainError, aux_i1, aux_i2

# frozen values: 40-digit mpmath I1(1) and I2(1), rounded to 15 digits
I1_AT_1 = 0.656622038443573
I2_AT_1 = 0.378550375764187


def test_frozen_values_at_u_equals_1():
    assert_allclose(aux_i1(1.0).value, I1_AT_1, atol=1e-13)
    assert_allclose(aux_i2(1.0).value, I2_AT_1, atol=1e-13)


def test_large_u_asymptotes():
    for u in (60.0, 120.0, 500.0):
        assert abs(aux_i1(u).value - 6.0 / u**4) < 0.01 * aux_i1(u).value
        assert abs(aux_i2(u).value - 2.0 / u**3) < 0.01 * aux_i2(u).value


def test_small_u_divergences():
    # leading behavior I1 ~ 1/u^2, I2 ~ 1/u
    u = 1e-3
    assert abs(aux_i1(u).value * u**2 - 1.0) < 0.05
    assert abs(aux_i2(u).value * u - 1.0) < 0.05


def test_positive_and_strictly_decreasing():
    grid = np.logspace(-3, 3, 40)
    v1 = [aux_i1(u).value for u in grid]
    v2 = [aux_i2(u).value for u in grid]
    assert all(v > 0 for v in v1 + v2)
    assert all(np.diff(v1) < 0)
    assert all(np.diff(v2) < 0)


def test_error_estimates():
    # closed form: a few ulps; meaningful as absolute error once the value
    # is O(1) (u >= 1)
    for u in (1.0, 5.0, 50.0, 800.0):
        assert aux_i1(u).est_abs_error <= 1e-12
        assert aux_i2(u).est_abs_error <= 1e-12


def test_error_bound_holds_against_mpmath():
    # the whole log range, and densely the band u in [2, 5], where scipy's
    # Si/Ci are least accurate
    u = np.concatenate([np.logspace(-3, 6, 1500), np.linspace(2.0, 5.0, 300)])
    got = (aux_i1(u), aux_i2(u))
    with mpmath.workdps(40):
        for k, v in enumerate(u):
            v = mpmath.mpf(v)
            si, ci = mpmath.si(v), mpmath.ci(v)
            h = mpmath.pi / 2 - si
            refs = (1 / v**2 - (-ci * mpmath.cos(v) + h * mpmath.sin(v)),
                    1 / v - (ci * mpmath.sin(v) + h * mpmath.cos(v)))
            for res, ref in zip(got, refs):
                err = abs(mpmath.mpf(float(res.value[k])) - ref)
                assert err <= res.est_abs_error[k], v


def test_domain_errors():
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            aux_i1(bad)
        with pytest.raises(DomainError):
            aux_i2(bad)
    # where the leading 1/u^2 (I1) or 1/u (I2) leaves the float range
    for fn, bad in ((aux_i1, 1e-160), (aux_i1, 1e-200), (aux_i2, 1e-320)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=repr(bad)):
                fn(bad)
            with pytest.raises(DomainError, match=repr(bad)):
                fn(np.array([1.0, bad, 0.5 * bad]))
