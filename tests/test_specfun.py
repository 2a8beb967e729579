import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from chidip import DomainError, aux_i1, aux_i2
from chidip import collective, specfun
from chidip.specfun import (
    U_SERIES,
    _aux,
    _gauss_laguerre,
    _NODES,
    _series,
    _WEIGHTS,
)

EPS = np.finfo(float).eps
# the documented relative error bound of est_abs_error, 2.8e-14
REL_BOUND = 128 * EPS

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
    # the first two asymptotic terms, 6/u^4 (1 - 20/u^2) and
    # 2/u^3 (1 - 12/u^2), from u = 1e5 up to where the values turn
    # subnormal (measured within 3 eps); beyond their underflow both are
    # exactly 0, and no u on the way overflows or warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for aux, top, lead, order, second in ((aux_i1, 76, 6.0, 4, 20.0),
                                              (aux_i2, 102, 2.0, 3, 12.0)):
            u = np.logspace(5, top, 400)
            asym = lead / u**order * (1.0 - second / u**2)
            assert np.all(np.abs(aux(u).value - asym) <= REL_BOUND * asym)
        for aux, low in ((aux_i1, 82), (aux_i2, 108)):
            u = np.concatenate([np.logspace(low, 307, 200), [8.99e307,
                                                             1.79e308]])
            assert np.all(aux(u).value == 0.0), aux


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
    # est_abs_error is the documented multiple of the value
    u = np.logspace(-3, 6, 200)
    for res in (aux_i1(u), aux_i2(u)):
        assert np.all(res.est_abs_error <= REL_BOUND * res.value)
        assert np.all(res.est_abs_error >= 0.99 * REL_BOUND * res.value)


def _mpmath_reference(v):
    """I1 and I2 at v from 40-digit mpmath Si/Ci."""
    with mpmath.workdps(40):
        v = mpmath.mpf(v)
        si, ci = mpmath.si(v), mpmath.ci(v)
        h = mpmath.pi / 2 - si
        return (1 / v**2 - (-ci * mpmath.cos(v) + h * mpmath.sin(v)),
                1 / v - (ci * mpmath.sin(v) + h * mpmath.cos(v)))


def test_error_bound_holds_against_mpmath():
    # the whole log range, and densely around the branch switch; measured
    # worst: 68 eps (1.5e-14) just below U_SERIES, where the Si/Ci closed
    # forms cancel most, 7 eps on the Laguerre rule
    u = np.concatenate([np.logspace(-3, 6, 1500),
                        np.linspace(U_SERIES - 1.0, U_SERIES + 1.0, 400)])
    got = (aux_i1(u), aux_i2(u))
    worst = 0.0
    for k, v in enumerate(u):
        for res, ref in zip(got, _mpmath_reference(v)):
            err = abs(mpmath.mpf(float(res.value[k])) - ref)
            assert err <= res.est_abs_error[k], v
            worst = max(worst, float(err / ref))
    assert worst <= 1e-13


def test_branches_agree_at_the_switches():
    # the seam: both branches within the bound of each other, and I1, I2
    # strictly decreasing on a grid of relative step 1e-12 across it (the
    # values fall by 3e-12 relative a step there)
    seam = np.array([U_SERIES])
    lo, hi = _series(seam), _gauss_laguerre(seam)
    assert np.all(np.abs(lo - hi) <= REL_BOUND * hi)
    u = U_SERIES * (1.0 + 1e-12 * np.arange(-50, 51))
    for aux in (aux_i1, aux_i2):
        assert np.all(np.diff(aux(u).value) < 0.0), aux


def test_array_elements_equal_float_calls():
    # every branch, the Laguerre rule's sum over its nodes included, gives
    # an array's elements bitwise as it gives the float calls
    u = np.concatenate([10 ** np.random.default_rng(5).uniform(-3, 6, 300),
                        np.geomspace(U_SERIES, 1e6, 600)])
    for aux in (aux_i1, aux_i2):
        values = aux(u).value
        assert all(aux(float(v)).value == values[k] for k, v in enumerate(u))


def test_each_branch_runs_on_its_own_elements(monkeypatch):
    # I1/I2 switch at U_SERIES and the brackets of f1 at Y_SERIES, each on
    # its own: the large-argument form (the Laguerre rule, the trig
    # brackets) sees only the elements at or above its switch, the series
    # only the others
    for module, run, below, above, edge in (
            (specfun, specfun._aux, "_series", "_gauss_laguerre", U_SERIES),
            (collective, collective._brackets, "_f1_series", "_f1_direct",
             collective.Y_SERIES)):
        seen = {}
        for name in (below, above):
            def spy(v, name=name, inner=getattr(module, name)):
                seen[name] = seen.get(name, 0) + v.size
                return inner(v)
            monkeypatch.setattr(module, name, spy)
        scale = edge / U_SERIES
        run(np.linspace(0.01, 2.9, 1000) * scale)
        assert seen == {below: 1000}, module
        seen.clear()
        run(np.linspace(3.0, 5.8, 1000) * scale)
        assert seen == {above: 1000}, module
        seen.clear()
        u = np.linspace(0.01, 5.8, 1000).reshape(500, 2) * scale
        run(u)
        assert seen == {below: np.count_nonzero(u < edge),
                        above: np.count_nonzero(u >= edge)}, module


def test_laguerre_rule_memory_is_blocked():
    # the (nodes x elements) temporary of the Laguerre rule is built in
    # blocks: 200000 elements peak at about 10 MB, where one (38 x 200000)
    # q array alone would take 61 MB
    u = np.full(200_000, 5.0)
    tracemalloc.start()
    try:
        _aux(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_laguerre_rule_moments():
    # the polished 64-node rule integrates t^k e^-t exactly up to rounding;
    # measured within 0.8 eps here (laggauss's own weights: 359 eps)
    for k in range(13):
        exact = math.factorial(k)
        moment = math.fsum(_WEIGHTS * _NODES**k)
        assert abs(moment - exact) <= 4 * EPS * exact, k


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
    # the ends of the domain: I2 down to u ~ tiny, where 1/u^2 would
    # overflow, and large u, where u^2 would
    for fn, u in ((aux_i2, 1e-300), (aux_i1, 1e200), (aux_i2, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn(u).value
        assert math.isfinite(value) and value >= 0.0, (fn, u)
