import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chidip import (
    DomainError,
    GeometryInvariants,
    InvalidSeparation,
    LambCutoff,
    MediumChirality,
    a_l_damping,
    a_t,
    collective_spectrum,
    f1,
    f2,
    geometry_factors,
    lamb_shift,
    normalize_geometry,
    rate_coefficients,
)
from chidip.collective import (
    ROTATION_FULL_DIFFERENCE,
    Y_SERIES,
    _f1_brackets_direct,
    _f1_brackets_series,
    _f2_brackets_direct,
    _f2_brackets_series,
)

VACUUM = MediumChirality(1.0, 1.0)
INACTIVE3 = MediumChirality(3.0, 3.0)
ACTIVE = MediumChirality(1.5, 4.5)

ORTH = GeometryInvariants(0.0, 0.0, -1.0)
SYNTROPIC = GeometryInvariants(1.0, 0.0, 0.0)

LAMB_FROZEN = 1.9473986060903592   # n_bar=1, Lambda = 511000/2.48


def _random_invariants(rng):
    d1, d2, ax = rng.normal(size=(3, 3))
    return geometry_factors(normalize_geometry(d1, d2, ax, 1.0))


# ---------------------------------------------------------------------------
# medium type

def test_medium_validation():
    with pytest.raises(DomainError):
        MediumChirality(-1.0, 2.0)
    with pytest.raises(DomainError):
        MediumChirality(1.0, 0.0)
    with pytest.raises(DomainError):
        MediumChirality(1.0, float("inf"))
    # both indices finite, but their mean overflows
    with pytest.raises(DomainError):
        MediumChirality(1.7e308, 1.7e308)


def test_medium_derived_quantities():
    m = MediumChirality(1.5, 4.5)
    assert m.n_bar == 3.0
    assert m.delta_n == -3.0
    # helicity +1 is permanently bound to n_left
    assert m.channels == ((+1.0, 1.5), (-1.0, 4.5))


def test_rotation_constructor_conventions():
    half = MediumChirality.from_mean_and_rotation(3.0, -1.5)
    assert (half.n_left, half.n_right) == (1.5, 4.5)
    full = MediumChirality.from_mean_and_rotation(3.0, -1.5,
                                                  ROTATION_FULL_DIFFERENCE)
    assert (full.n_left, full.n_right) == (2.25, 3.75)
    with pytest.raises(DomainError):
        MediumChirality.from_mean_and_rotation(3.0, -1.5, "sideways")
    with pytest.raises(DomainError):
        MediumChirality.from_mean_and_rotation(1.0, 1.5)  # n_right <= 0


# ---------------------------------------------------------------------------
# f1 / f2 values

def test_separation_validation():
    for fn in (f1, f2):
        with pytest.raises(InvalidSeparation):
            fn(0.0, VACUUM, SYNTROPIC)
        with pytest.raises(InvalidSeparation):
            fn(-1.0, VACUUM, SYNTROPIC)
    # f2 ~ 1/x^3 leaves the float range long before x reaches zero
    for x in (1e-103, 1e-300):
        with pytest.raises(InvalidSeparation):
            f2(x, VACUUM, SYNTROPIC)
    # non-real x is refused, not cast
    for fn in (f1, f2):
        for x in (1j, np.array([1.0 + 1.0j]), "2", None):
            with pytest.raises(InvalidSeparation, match="real numbers"):
                fn(x, VACUUM, SYNTROPIC)


def test_inactive_orthogonal_cancellation_is_exact():
    # equal indices: the two helicities cancel the c term bitwise
    for x in (0.3, 1.0, 2.0, 7.7):
        assert f1(x, INACTIVE3, ORTH) == 0.0
        assert f2(x, INACTIVE3, ORTH) == 0.0


def test_vacuum_syntropic_at_pi():
    assert_allclose(f1(np.pi, VACUUM, SYNTROPIC), -3.0 / (4 * np.pi**2),
                    rtol=1e-14)


def test_chirality_cancellation_independent_of_c():
    rng = np.random.default_rng(21)
    for n in (1.0, 3.0):
        m = MediumChirality(n, n)
        base = f1(2.0, m, GeometryInvariants(0.3, 0.1, 0.0))
        base2 = f2(2.0, m, GeometryInvariants(0.3, 0.1, 0.0))
        for _ in range(5):
            c = float(rng.uniform(-1, 1))
            g = GeometryInvariants(0.3, 0.1, c)
            assert abs(f1(2.0, m, g) - base) < 1e-14
            assert abs(f2(2.0, m, g) - base2) < 1e-14


def test_dicke_limit_small_x():
    # series path: f1 -> n_bar/2 for parallel dipoles
    assert abs(f1(1e-3, VACUUM, SYNTROPIC) - 0.5) < 1e-6
    # in a dense medium the approach is slower (physical y^2 term): the
    # deviation equals sum_lambda (3 n/8)(2 y^2/15) to leading order
    dev = 1.5 - f1(1e-3, INACTIVE3, SYNTROPIC)
    expected = 2 * (3 * 3 / 8) * (2 * (3e-3)**2 / 15)
    assert_allclose(dev, expected, rtol=1e-3)


def test_series_and_direct_paths_agree_at_switchover():
    y = Y_SERIES
    for a, b in zip(_f1_brackets_direct(y), _f1_brackets_series(y)):
        assert abs(a - b) < 1e-9
    for a, b in zip(_f2_brackets_direct(y), _f2_brackets_series(y)):
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_exchange_symmetry():
    # swapping the dipoles together with flipping the axis leaves a, b, c
    # unchanged, hence f1/f2 identical
    rng = np.random.default_rng(8)
    for _ in range(5):
        d1, d2, ax = rng.normal(size=(3, 3))
        g = geometry_factors(normalize_geometry(d1, d2, ax, 1.0))
        gs = geometry_factors(normalize_geometry(d2, d1, -ax, 1.0))
        for m in (VACUUM, ACTIVE):
            assert_allclose(f1(1.7, m, gs), f1(1.7, m, g), rtol=1e-12)
            assert_allclose(f2(1.7, m, gs), f2(1.7, m, g), rtol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.floats(1e-3, 1e3), st.floats(1e-90, 1e6)),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_helicity_swap_symmetry(x, n_left, n_right, abc):
    # swapping n_left <-> n_right together with c -> -c relabels the same
    # physics: f1 and f2 agree bitwise
    a, b, c = abc
    m, g = MediumChirality(n_left, n_right), GeometryInvariants(a, b, c)
    swapped = MediumChirality(n_right, n_left)
    g_flip = GeometryInvariants(a, b, -c)
    for fn in (f1, f2):
        assert fn(x, m, g) == fn(x, swapped, g_flip)


def test_far_field_decay():
    v = a_t(1e7, ACTIVE, geometry_factors(
        normalize_geometry((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)))
    assert abs(v.real) < 1e-6 and abs(v.imag) < 1e-6


def test_a_t_structure():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = _random_invariants(rng)
        x = float(rng.uniform(0.2, 8.0))
        v = a_t(x, ACTIVE, g)
        assert v.real == -f1(x, ACTIVE, g)
        assert v.imag == +f2(x, ACTIVE, g)


# ---------------------------------------------------------------------------
# single-dipole quantities

def test_a_l_damping_depends_on_mean_only():
    assert a_l_damping(VACUUM) == -0.5
    assert a_l_damping(INACTIVE3) == -1.5
    assert a_l_damping(ACTIVE) == -1.5


def test_lamb_shift_values():
    assert_allclose(lamb_shift(VACUUM, LambCutoff(math.exp(2 * math.pi))),
                    1.0, rtol=1e-14)
    cut = LambCutoff(511000.0 / 2.48)
    assert_allclose(lamb_shift(VACUUM, cut), LAMB_FROZEN, rtol=1e-14)
    # linear in the mean index, independent of the split
    assert_allclose(lamb_shift(INACTIVE3, cut), 3 * LAMB_FROZEN, rtol=1e-14)
    assert_allclose(lamb_shift(ACTIVE, cut), 3 * LAMB_FROZEN, rtol=1e-14)


def test_lamb_cutoff_validation():
    for bad in (1.0, 0.5, -3.0, float("nan")):
        with pytest.raises(DomainError):
            LambCutoff(bad)


# ---------------------------------------------------------------------------
# assembled spectrum

def test_sum_rule_and_nonnegative_rates():
    rng = np.random.default_rng(10)
    for _ in range(300):
        g = _random_invariants(rng)
        nl, nr = rng.uniform(0.2, 5.0, size=2)
        m = MediumChirality(float(nl), float(nr))
        x = float(10 ** rng.uniform(-2.5, 1.0))
        s = collective_spectrum(x, m, g)
        assert abs(s.gamma_plus + s.gamma_minus - m.n_bar) < 1e-14 * m.n_bar
        assert s.gamma_plus >= 0.0
        assert s.gamma_minus >= 0.0


def test_spectrum_fields_are_consistent():
    cut = LambCutoff(1e5)
    s = collective_spectrum(2.0, ACTIVE, ORTH, cut)
    assert s.delta == 2 * s.f2
    assert_allclose(s.delta_plus - s.delta_minus, s.delta, atol=1e-15)
    assert_allclose(s.delta_plus + s.delta_minus, 2 * lamb_shift(ACTIVE, cut),
                    rtol=1e-14)
    # without a cutoff the Lamb part is left out
    bare = collective_spectrum(2.0, ACTIVE, ORTH)
    assert bare.delta_plus == bare.f2
    assert bare.delta_minus == -bare.f2
    assert bare.delta == s.delta


def test_superradiant_and_subradiant_limits():
    s = collective_spectrum(1e-3, VACUUM, SYNTROPIC)
    assert abs(s.gamma_plus - VACUUM.n_bar) < 1e-6
    assert abs(s.gamma_minus) < 1e-6


def test_rate_coefficients_assembly():
    cut = LambCutoff(1e5)
    rc = rate_coefficients(2.0, ACTIVE, ORTH, cut)
    assert rc.a_l.real == -1.5
    assert rc.a_l.imag == lamb_shift(ACTIVE, cut)
    assert rc.a_t == a_t(2.0, ACTIVE, ORTH)
    bare = rate_coefficients(2.0, ACTIVE, ORTH)
    assert bare.a_l == complex(-1.5, 0.0)
