import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chidip import (
    DipoleGeometry,
    InvalidGeometry,
    InvalidSeparation,
    geometry_factors,
    normalize_geometry,
)


def _rotation(q):
    """The rotation matrix of the quaternion q = (w, x, y, z) / |q|; a
    normalised Gaussian q is a uniform random rotation."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def test_normalization_to_unit_vectors():
    g = normalize_geometry((0, 0, 2), (3, 0, 0), (5, 0, 0), 1.0)
    assert_allclose(g.d1_hat, [0, 0, 1])
    assert_allclose(g.d2_hat, [1, 0, 0])
    assert_allclose(g.r_hat, [1, 0, 0])
    assert g.x == 1.0


def test_zero_separation_rejected():
    with pytest.raises(InvalidSeparation):
        normalize_geometry((0, 0, 1), (0, 0, 1), (1, 0, 0), 0.0)
    with pytest.raises(InvalidSeparation):
        normalize_geometry((0, 0, 1), (0, 0, 1), (1, 0, 0), -2.0)


def test_zero_vector_rejected():
    with pytest.raises(InvalidGeometry):
        normalize_geometry((0, 0, 0), (0, 0, 1), (1, 0, 0), 1.0)
    with pytest.raises(InvalidGeometry):
        normalize_geometry((0, 0, 1), (0, 0, 1), (0, 0, 0), 1.0)


@pytest.mark.parametrize("x", ["1", None, 1j, 10**400, [1.0, 2.0],
                               np.array([2.0]), float("nan")])
def test_separation_that_is_not_one_real_number_rejected(x):
    with pytest.raises(InvalidSeparation):
        normalize_geometry((0, 0, 1), (0, 0, 1), (1, 0, 0), x)
    with pytest.raises(InvalidSeparation):
        DipoleGeometry(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                       np.array([1.0, 0.0, 0.0]), x)


@pytest.mark.parametrize("v", [("abc", 0, 0), (1j, 0, 0), (10**400, 0, 0),
                               None, [(1, 2), 0, 0], (1.0, 0.0)])
def test_vector_that_is_not_real_3_vector_rejected(v):
    with pytest.raises(InvalidGeometry):
        normalize_geometry(v, (0, 0, 1), (1, 0, 0), 1.0)
    with pytest.raises(InvalidGeometry):
        normalize_geometry((0, 0, 1), (0, 0, 1), v, 1.0)


def test_huge_vectors_normalize_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = normalize_geometry((1e308, 1e308, 0), (0, -1.7e308, 0),
                               (0, 0, 1e308), 2.0)
    assert_allclose(g.d1_hat, [2**-0.5, 2**-0.5, 0], rtol=1e-15)
    assert g.d2_hat.tolist() == [0.0, -1.0, 0.0]
    assert g.r_hat.tolist() == [0.0, 0.0, 1.0]


def test_tiny_vectors_normalize_to_unit_length():
    # the squares underflow below a norm of about 1e-150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = normalize_geometry((1e-160, 1e-160, 0), (1e-170, 0, 0),
                               (1e-155, 0, 0), 2.0)
    for v in (g.d1_hat, g.d2_hat, g.r_hat):
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert_allclose(g.d1_hat, [2**-0.5, 2**-0.5, 0], rtol=1e-15)
    assert g.d2_hat.tolist() == [1.0, 0.0, 0.0]
    assert g.r_hat.tolist() == [1.0, 0.0, 0.0]


def test_ordinary_vectors_normalize_by_their_norm():
    # no rescale away from the over- and underflow ends: bitwise v / |v|
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-100, 100)
        g = normalize_geometry(v, v, v, 1.0)
        assert np.array_equal(g.d1_hat, v / np.linalg.norm(v))


def test_valid_separation_becomes_a_python_float():
    unit = np.array([0.0, 0.0, 1.0])
    for x in (2, np.float32(2.0), np.array(2.0), np.int64(2)):
        for g in (normalize_geometry(unit, unit, unit, x),
                  DipoleGeometry(unit, unit, unit, x)):
            assert type(g.x) is float and g.x == 2.0


def test_type_rejects_non_unit_vectors():
    with pytest.raises(InvalidGeometry):
        DipoleGeometry(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]),
                       np.array([1.0, 0.0, 0.0]), 1.0)
    # a vector whose squares overflow is refused by the same message, and
    # without a RuntimeWarning; a length within 1e-12 of 1 is taken
    unit = np.array([1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e155, 1e200, 1.7e308):
            with pytest.raises(InvalidGeometry,
                               match="d2_hat must be a unit 3-vector"):
                DipoleGeometry(unit, np.array([0.0, big, big]), unit, 1.0)
        g = DipoleGeometry(unit, np.array([0.0, 1.0 + 5e-13, 0.0]), unit,
                           1.0)
    assert g.d2_hat.tolist() == [0.0, 1.0 + 5e-13, 0.0]


def test_orthogonal_perpendicular_invariants():
    g = normalize_geometry((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
    inv = geometry_factors(g)
    assert inv.a == 0.0
    assert inv.b == 0.0
    assert inv.c == -1.0      # (y_hat x x_hat) . z_hat


def test_syntropic_perpendicular_invariants():
    inv = geometry_factors(normalize_geometry((1, 0, 0), (1, 0, 0),
                                              (0, 0, 1), 1.0))
    assert (inv.a, inv.b, inv.c) == (1.0, 0.0, 0.0)


def test_isotropic_invariants():
    inv = geometry_factors(normalize_geometry((1, 1, 1), (1, 1, 1),
                                              (0, 0, 1), 1.0))
    assert_allclose(inv.a, 1.0, atol=1e-15)
    assert_allclose(inv.b, 1.0 / 3.0, atol=1e-15)
    assert_allclose(inv.c, 0.0, atol=1e-15)


def test_rotation_invariance():
    rng = np.random.default_rng(11)
    d1 = rng.normal(size=3)
    d2 = rng.normal(size=3)
    ax = rng.normal(size=3)
    ref = geometry_factors(normalize_geometry(d1, d2, ax, 2.0))
    for q in np.random.default_rng(7).normal(size=(20, 4)):
        R = _rotation(q)
        inv = geometry_factors(normalize_geometry(R @ d1, R @ d2, R @ ax, 2.0))
        assert_allclose((inv.a, inv.b, inv.c), (ref.a, ref.b, ref.c),
                        atol=1e-12)


def test_swapping_dipoles_flips_c_only():
    rng = np.random.default_rng(3)
    d1, d2, ax = rng.normal(size=(3, 3))
    inv = geometry_factors(normalize_geometry(d1, d2, ax, 1.0))
    swapped = geometry_factors(normalize_geometry(d2, d1, ax, 1.0))
    assert_allclose(swapped.a, inv.a, atol=1e-15)
    assert_allclose(swapped.b, inv.b, atol=1e-15)
    assert_allclose(swapped.c, -inv.c, atol=1e-15)


def test_axis_flip_flips_c_keeps_b():
    rng = np.random.default_rng(4)
    d1, d2, ax = rng.normal(size=(3, 3))
    inv = geometry_factors(normalize_geometry(d1, d2, ax, 1.0))
    flipped = geometry_factors(normalize_geometry(d1, d2, -ax, 1.0))
    assert_allclose(flipped.a, inv.a, atol=1e-15)
    assert_allclose(flipped.b, inv.b, atol=1e-15)
    assert_allclose(flipped.c, -inv.c, atol=1e-15)


def test_identical_dipoles_give_zero_c():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.normal(size=3)
        ax = rng.normal(size=3)
        inv = geometry_factors(normalize_geometry(d, d, ax, 1.0))
        assert inv.c == 0.0


def test_invariants_bounded():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d1, d2, ax = rng.normal(size=(3, 3))
        inv = geometry_factors(normalize_geometry(d1, d2, ax, 1.0))
        for v in (inv.a, inv.b, inv.c):
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_factors_match_the_np_cross_reference_bitwise():
    # c takes d2 x d1 by components; on seeded random geometries every
    # invariant equals, bit for bit, the one built with np.cross
    rng = np.random.default_rng(41)
    for _ in range(2000):
        g = normalize_geometry(*rng.normal(size=(3, 3)), 1.0)
        inv = geometry_factors(g)
        assert inv.a == float(g.d2_hat @ g.d1_hat)
        assert inv.b == float((g.d2_hat @ g.r_hat) * (g.r_hat @ g.d1_hat))
        assert inv.c == float(np.cross(g.d2_hat, g.d1_hat) @ g.r_hat)
