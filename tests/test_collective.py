import math

import mpmath
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
)
from chidip.collective import (
    Y_SERIES,
    _brackets,
    _f1_direct,
    _f1_series,
    _trig,
)
from chidip.specfun import _aux

EPS = float(np.finfo(float).eps)
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
    # not a real number: refused as a domain error, not a TypeError
    for bad in ("3", 1j, None):
        with pytest.raises(DomainError):
            MediumChirality(bad, 1.0)
        with pytest.raises(DomainError):
            MediumChirality(1.0, bad)
        with pytest.raises(DomainError):
            MediumChirality.from_mean_and_rotation(bad, 0.1)
        with pytest.raises(DomainError):
            MediumChirality.from_mean_and_rotation(3.0, bad)
    # beyond the float range: a domain error, not an OverflowError or a
    # numpy overflow warning
    for n_bar, rotation in ((10**400, 0.5), (np.float64(1e308), 1e308),
                            (1e308, np.float64(-1e308))):
        with pytest.raises(DomainError):
            MediumChirality.from_mean_and_rotation(n_bar, rotation)


def test_medium_derived_quantities():
    m = MediumChirality(1.5, 4.5)
    assert m.n_bar == 3.0
    # helicity +1 is permanently bound to n_left
    assert m.channels == ((+1.0, 1.5), (-1.0, 4.5))


def test_rotation_constructor_conventions():
    half = MediumChirality.from_mean_and_rotation(3.0, -1.5)
    assert (half.n_left, half.n_right) == (1.5, 4.5)
    # the other reading, rotation = n_left - n_right, is rotation / 2 here
    full = MediumChirality.from_mean_and_rotation(3.0, -1.5 / 2)
    assert (full.n_left, full.n_right) == (2.25, 3.75)
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
    # f1's brackets at Y_SERIES and its two float neighbours; measured
    # worst 1.7e-16
    for y in (np.nextafter(Y_SERIES, 0.0), Y_SERIES,
              np.nextafter(Y_SERIES, 4.0)):
        direct, series = _f1_direct(np.array([y])), _f1_series(np.array([y]))
        for a, b in zip(direct, series):
            assert abs(a[0] - b[0]) < 1e-15, y


def test_brackets_pick_series_or_direct_per_element():
    # _brackets runs the series on the y below Y_SERIES alone; each element
    # must equal bitwise the form its own y selects, as when both forms ran
    # over the whole array (y == Y_SERIES takes the trig form)
    below, above = np.nextafter(Y_SERIES, 0.0), np.nextafter(Y_SERIES, 4.0)
    cases = [
        np.array([[1e-90, 1e-3], [below, Y_SERIES], [above, 1.9],
                  [0.5, 1e300]]),                       # straddles
        np.array([1e-4, 0.03, below]),                  # all small
        np.array([Y_SERIES, above, 3.0, 1e5]),          # none small
        np.multiply.outer(1.5, [1.0, 2.0]),             # y of a float x
        np.multiply.outer(np.logspace(-4, 1, 301), [0.7, 3.1]),
    ]
    for y in cases:
        small = y < Y_SERIES
        v = y.ravel()
        want = [np.where(small, s.reshape(y.shape), d.reshape(y.shape))
                for s, d in zip(_f1_series(np.minimum(v, Y_SERIES)),
                                _f1_direct(np.maximum(v, Y_SERIES)))]
        got = _brackets(y)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.shape == y.shape
            assert g.tobytes() == w.tobytes()


def test_f2_evaluates_no_f1_brackets(monkeypatch):
    # f2 evaluates F2's brackets alone: neither form of F1's brackets runs
    # for it, at y on both sides of Y_SERIES, while a_t and
    # collective_spectrum, which return F1 too, run both
    from chidip import collective
    seen = []
    for name in ("_f1_series", "_f1_direct"):
        def spy(v, name=name, inner=getattr(collective, name)):
            seen.append(name)
            return inner(v)
        monkeypatch.setattr(collective, name, spy)
    x = np.linspace(0.1, 4.0, 50)           # y = n x from 0.15 to 18
    for xs in (x, 0.2, 3.0):
        f2(xs, ACTIVE, ORTH)
    assert seen == []
    for both in (a_t, collective_spectrum):
        both(x, ACTIVE, ORTH)
        assert sorted(seen) == ["_f1_direct", "_f1_series"], both
        seen.clear()


def test_f2_brackets_match_mpmath_from_1e_99_to_2():
    # f2's brackets (d1, d2, -d3) by the trig form alone, where f1's take
    # the series: nothing cancels in them, so each is within a few eps of
    # its 50-digit value relative to itself; measured worst 2.3 eps
    eps = np.finfo(float).eps
    y = np.logspace(-99, math.log10(2.0), 800)
    got = _trig(np.cos(y), -np.sin(y), 1.0 / y)
    worst = 0.0
    with mpmath.workdps(50):
        for k, v in enumerate(y):
            v = mpmath.mpf(float(v))
            sv, cv = mpmath.sin(v), mpmath.cos(v)
            want = (cv / v - sv / v**2 - cv / v**3,
                    cv / v - 3 * sv / v**2 - 3 * cv / v**3,
                    -(sv / v + cv / v**2))
            for g, w in zip(got, want):
                worst = max(worst, float(abs(g[k] - w) / abs(w)) / eps)
    assert worst <= 4.0, worst


# below this y f1's brackets must be accurate to their own size (the
# series side), and f2's, which cancel nothing, too
_Y_OWN_SCALE = 2.0


def _reference_channel(y, a, b, c, s):
    """One channel's brackets of F1 and F2 at the double y, per unit 3n/8,
    at the working precision, with I1/I2 from mpmath Si/Ci; and the error
    scale of each: below _Y_OWN_SCALE |a b1| + |b b2| + |c b3| (d1, d2,
    d3 + aux for F2), above it the sum of |every term| before it cancels
    (the aux term's too)."""
    small = y < _Y_OWN_SCALE
    y = mpmath.mpf(y)
    sy, cy = mpmath.sin(y), mpmath.cos(y)
    tail, ci = mpmath.pi / 2 - mpmath.si(y), mpmath.ci(y)
    p1, p2 = tail * sy - ci * cy, ci * sy + tail * cy
    aux = (2 / mpmath.pi) * ((1 / y**2 - p1) / y + (1 / y - p2) / y**2)
    b1 = sy / y + cy / y**2 - sy / y**3
    b2 = sy / y + 3 * cy / y**2 - 3 * sy / y**3
    b3 = cy / y - sy / y**2
    d1 = cy / y - sy / y**2 - cy / y**3
    d2 = cy / y - 3 * sy / y**2 - 3 * cy / y**3
    d3 = sy / y + cy / y**2
    f1v, f2v = a * b1 - b * b2 + s * c * b3, a * d1 - b * d2 - s * c * (d3 + aux)
    if small:
        return (f1v, f2v, abs(a * b1) + abs(b * b2) + abs(c * b3),
                abs(a * d1) + abs(b * d2) + abs(c * (d3 + aux)))
    S, C = abs(sy), abs(cy)
    aux_terms = (2 / mpmath.pi) * (2 / y**3 + (abs(tail * sy) + abs(ci * cy)) / y
                                   + (abs(ci * sy) + abs(tail * cy)) / y**2)
    return (f1v, f2v,
            abs(a) * (S / y + C / y**2 + S / y**3)
            + abs(b) * (S / y + 3 * C / y**2 + 3 * S / y**3)
            + abs(c) * (C / y + S / y**2),
            abs(a) * (C / y + S / y**2 + C / y**3)
            + abs(b) * (C / y + 3 * S / y**2 + 3 * C / y**3)
            + abs(c) * (S / y + C / y**2 + aux_terms))


def _errors_in_eps(x, m, g):
    """|f1 - reference| and |f2 - reference| in units of eps times their
    error scale, the reference at y = fl(n x) as the closed forms form it."""
    ref = [mpmath.mpf(0)] * 4
    abc = [mpmath.mpf(v) for v in (g.a, g.b, g.c)]
    for s, n in m.channels:
        w = 3 * mpmath.mpf(n) / 8
        ref = [r + w * v for r, v in zip(ref, _reference_channel(n * x, *abc, s))]
    eps = np.finfo(float).eps
    return (float(abs(f1(x, m, g) - ref[0]) / ref[2]) / eps,
            float(abs(f2(x, m, g) - ref[1]) / ref[3]) / eps)


def test_f1_f2_match_mpmath_reference():
    # measured worst: 1.5 eps (f1) and 2.4 eps (f2) here, and 1.9 and
    # 2.6 eps over 8 other seeds of 700 samples; k is the bound README
    # "Numerical notes" states
    k = 12.0
    rng = np.random.default_rng(31)
    cases = []
    for i in range(700):
        m = MediumChirality(*map(float, rng.uniform(0.2, 5.0, size=2)))
        g = GeometryInvariants(*map(float, rng.uniform(-1.0, 1.0, size=3)))
        if i < 300:         # both channels below _Y_OWN_SCALE
            x = 10 ** rng.uniform(-4, math.log10(_Y_OWN_SCALE)) / max(
                m.n_left, m.n_right)
        elif i % 4 == 0:    # at the switch
            x = _Y_OWN_SCALE * 10 ** rng.uniform(-0.3, 0.3) / m.n_left
        else:
            x = 10 ** rng.uniform(-4, 3) / m.n_left
        cases.append((float(x), m, g))
    # isotropic preset in vacuum: a d1 - b d2 cancels a millionfold
    iso = GeometryInvariants(1.0, 1.0 / 3.0, 0.0)
    cases += [(float(x), VACUUM, iso) for x in np.linspace(0.0013, 0.0017, 21)]
    with mpmath.workdps(50):
        worst = np.max([_errors_in_eps(*case) for case in cases], axis=0)
    assert worst[0] <= k and worst[1] <= k, worst


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
    # a_t and collective_spectrum take F1 from the pass they share with F2,
    # f1 from a pass of its own: bitwise the same values, on both sides of
    # the series switch of either channel and down to the f2 floor
    n = np.array([ACTIVE.n_left, ACTIVE.n_right])
    floor = np.max(1e-100 * np.cbrt(np.maximum(n, 1.0)) / n) * (1 + 1e-12)
    xs = np.concatenate([[floor], np.logspace(-100, 3, 400),
                         Y_SERIES / n * (1 + 1e-15), Y_SERIES / n])
    for _ in range(3):
        g = _random_invariants(rng)
        want1, want2 = f1(xs, ACTIVE, g), f2(xs, ACTIVE, g)
        v = a_t(xs, ACTIVE, g)
        s = collective_spectrum(xs, ACTIVE, g)
        for got, want in ((v.real, -want1), (v.imag, want2),
                          (s.f1, want1), (s.f2, want2)):
            assert np.array_equal(got, want)


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
    # not a real number, or beyond the float range: a domain error, not a
    # TypeError or an OverflowError
    for bad in (1.0, 0.5, -3.0, float("nan"), float("inf"), "3", None, 1j,
                10**400):
        with pytest.raises(DomainError):
            LambCutoff(bad)
    # stored as a Python float, like the indices of MediumChirality
    for good in (100, np.float64(1e5), 1.7e308):
        cut = LambCutoff(good)
        assert type(cut.lambda_cutoff) is float
        assert cut.lambda_cutoff == good


# ---------------------------------------------------------------------------
# assembled spectrum

def test_sum_rule_and_nonnegative_rates():
    """gamma_+ + gamma_- = n_bar and gamma_+- >= 0 on random geometries, and
    at the Dicke limit d2 = d1 with x down to 1e-9.  There gamma_- -> 0 and
    rounding may take it below 0: the smallest measured was -1.36 eps n_bar
    over 20000 such samples, so those inputs alone get an allowance of
    4 eps n_bar."""
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
    for _ in range(300):
        d, ax = rng.normal(size=(2, 3))
        g = geometry_factors(normalize_geometry(d, d, ax, 1.0))
        m = MediumChirality(*map(float, rng.uniform(0.2, 5.0, size=2)))
        x = float(10 ** rng.uniform(-9.0, 3.0))
        s = collective_spectrum(x, m, g)
        assert abs(s.gamma_plus + s.gamma_minus - m.n_bar) < 1e-14 * m.n_bar
        assert min(s.gamma_plus, s.gamma_minus) >= -4 * EPS * m.n_bar


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
INDICES = st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
VECTOR = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3)
# d1, d2 and the axis; d2 = d1 one time in two, which puts x -> 0 at the
# Dicke limit gamma_minus -> 0
DIPOLES = st.tuples(VECTOR, VECTOR, VECTOR, st.booleans()).map(
    lambda t: (t[0], t[0] if t[3] else t[1], t[2]))


def _bracket_scales(x, m):
    """sum over the channels of (3n/8)(|b1| + |b2| + |b3|) and of
    (3n/8)(|d1| + |d2| + |d3 + aux|): the scale of f1 and f2 at unit |a|,
    |b|, |c|, and of the rounding of their final combination."""
    n = np.array([n for _, n in m.channels])
    y = n * x
    u = 1.0 / y
    b1, b2, b3 = _brackets(y)
    d1, d2, minus_d3 = _trig(np.cos(y), -np.sin(y), u)
    i1, i2 = _aux(y)
    minus_d3_aux = minus_d3 - (2 / np.pi) * u * (i1 + u * i2)
    b = 3 * n / 8 * np.abs([b1, b2, b3, d1, d2, minus_d3_aux])
    return float(b[:3].sum()), float(b[3:].sum())


def _rotation(q):
    """The rotation matrix of the quaternion q = (w, x, y, z) / |q|; a
    normalised Gaussian q is a uniform random rotation."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@PROPERTY
@given(DIPOLES, st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1), st.floats(1e-4, 1e3), INDICES)
def test_joint_rotation_leaves_invariants_and_f1_f2(dipoles, quat, x,
                                                    indices):
    # (a, b, c) move by rounding only: measured 3.8 eps over 4000 random
    # rotations, bounded here by 8 eps.  f1 and f2 are linear in (a, b, c)
    # over brackets that depend on y alone, so they move by at most that
    # shift times their bracket scale, plus the rounding of the final
    # combination (measured 1.3 eps of the scale, bounded by 4 eps)
    R = _rotation(quat)
    g = geometry_factors(normalize_geometry(*dipoles, 1.0))
    gr = geometry_factors(normalize_geometry(*(R @ v for v in dipoles), 1.0))
    shift = max(abs(gr.a - g.a), abs(gr.b - g.b), abs(gr.c - g.c))
    assert shift <= 8 * EPS
    m = MediumChirality(*indices)
    for fn, scale in zip((f1, f2), _bracket_scales(x, m)):
        assert abs(fn(x, m, gr) - fn(x, m, g)) <= (shift + 4 * EPS) * scale


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

