import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chidip import (
    MediumChirality,
    OracleDivergence,
    f1,
    f2,
    geometry_factors,
    normalize_geometry,
)
from chidip.specfun import aux_i1, aux_i2
from scipy.special import roots_legendre

from chidip.oracle import (
    ModeDyadicSample,
    _panel_average,
    _projected_dyadic,
    f1_oracle,
    f2_oracle,
    mode_dyadic_sample,
)

VACUUM = MediumChirality(1.0, 1.0)
INACTIVE3 = MediumChirality(3.0, 3.0)
ACTIVE = MediumChirality(1.5, 4.5)

SYNTROPIC = normalize_geometry((1, 0, 0), (1, 0, 0), (0, 0, 1), 1.0)
ORTH = normalize_geometry((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
ISO = normalize_geometry((1, 1, 1), (1, 1, 1), (0, 0, 1), 1.0)
# axis along -z: the polar axis of the angular reduction points down
ORTH_DOWN = normalize_geometry((1, 0, 0), (0, 1, 0), (0, 0, -1), 1.0)


def _random_geometry(rng):
    return normalize_geometry(rng.normal(size=3), rng.normal(size=3),
                              rng.normal(size=3), 1.0)


# ---------------------------------------------------------------------------
# the mode dyadic

def test_mode_dyadic_frame_and_projector():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = rng.normal(size=3)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        for hel in (+1.0, -1.0):
            s = mode_dyadic_sample(k, hel)
            # the oracles' vectorized projection is d2 . M . d1
            proj = _projected_dyadic(s.k_hat[None, :], hel, d1, d2)[0]
            assert abs(proj - d2 @ s.m_dyadic @ d1) < 1e-12
            assert isinstance(s, ModeDyadicSample)
            # orthonormal right-handed frame
            for u, v in ((s.e1_hat, s.e2_hat), (s.e1_hat, s.k_hat),
                         (s.e2_hat, s.k_hat)):
                assert abs(u @ v) < 1e-12
            assert_allclose(np.cross(s.e1_hat, s.e2_hat), s.k_hat,
                            atol=1e-12)
            # Hermitian, and symmetric part = transverse projector
            assert np.max(np.abs(s.m_dyadic - s.m_dyadic.conj().T)) < 1e-12
            proj = np.eye(3) - np.outer(s.k_hat, s.k_hat)
            sym = 0.5 * (s.m_dyadic + s.m_dyadic.T)
            assert np.max(np.abs(sym - proj)) < 1e-12
            # transversality: nothing propagates along k
            assert np.max(np.abs(s.m_dyadic @ s.k_hat)) < 1e-12


def test_mode_dyadic_is_frame_covariant():
    rng = np.random.default_rng(18)
    for _ in range(10):
        k = rng.normal(size=3)
        base = mode_dyadic_sample(k, -1.0)
        rot = mode_dyadic_sample(k, -1.0, frame_angle=float(rng.uniform(0, 7)))
        assert np.max(np.abs(rot.m_dyadic - base.m_dyadic)) < 1e-12


# ---------------------------------------------------------------------------
# the panel-factored phase kernel

def test_panel_average_matches_direct_node_sum():
    # the factored (P x J) @ (J x L) product, with the weights at -mu folded
    # onto +mu, against one exp per radial node and polar node
    rng = np.random.default_rng(24)
    for n_polar, n_gl in ((8, 4), (31, 10), (64, 16), (301, 10), (1200, 16)):
        mu, wmu = roots_legendre(n_polar)
        weighted = wmu * (rng.normal(size=n_polar)
                          + 1j * rng.normal(size=n_polar))
        nodes, _ = roots_legendre(n_gl)
        for _ in range(3):
            y = rng.uniform(0.5, 20.0)
            n_panels = int(rng.integers(1, 300))
            half = rng.uniform(-1.0, 1.0) * math.pi / y
            mids = rng.uniform(0.0, 2000.0 / y, size=n_panels)
            got = _panel_average(y, mids, half, nodes, mu, weighted)
            kt = mids[:, None] + half * nodes
            phase = np.exp(1j * y * np.multiply.outer(kt, mu))
            want = 0.5 * (phase @ weighted).real
            assert got.shape == (n_panels, n_gl)
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# on-shell oracle

def test_f1_oracle_inactive_orthogonal_vanishes():
    for x in (0.5, 2.0, 7.0):
        assert abs(f1_oracle(x, INACTIVE3, ORTH)) < 1e-10


def test_f1_oracle_matches_closed_form_vacuum():
    got = f1_oracle(math.pi, VACUUM, SYNTROPIC)
    assert abs(got - (-3.0 / (4 * math.pi**2))) < 1e-8


def test_f1_oracle_matches_closed_form_active_isotropic():
    got = f1_oracle(2.0, ACTIVE, ISO)
    want = f1(2.0, ACTIVE, geometry_factors(ISO))
    assert abs(got - want) < 1e-8


def test_f1_oracle_refinement_stability():
    # the 64- and 128-node polar rules agree to 1e-10, or the oracle raises
    rng = np.random.default_rng(19)
    g = _random_geometry(rng)
    for x in (0.5, 3.0, 10.0):
        for m in (VACUUM, ACTIVE):
            f1_oracle(x, m, g, refine_tol=1e-10)


def test_f1_oracle_deterministic():
    a = f1_oracle(2.3, ACTIVE, ISO)
    b = f1_oracle(2.3, ACTIVE, ISO)
    assert a == b


def test_f1_oracle_helicity_swap_symmetry():
    # swapping n_left <-> n_right together with c -> -c (axis flip) is a
    # relabeling of the same physics
    rng = np.random.default_rng(22)
    g = _random_geometry(rng)
    g_flip = normalize_geometry(g.d1_hat, g.d2_hat, -g.r_hat, 1.0)
    swapped = MediumChirality(ACTIVE.n_right, ACTIVE.n_left)
    assert abs(f1_oracle(2.0, ACTIVE, g) - f1_oracle(2.0, swapped, g_flip)) \
        < 1e-12


def test_f1_oracle_divergence_detected():
    # the 64-node polar rule cannot resolve the phase n*x = 270 of x = 60;
    # the internal node-doubling check must catch it
    rng = np.random.default_rng(23)
    g = _random_geometry(rng)
    with pytest.raises(OracleDivergence):
        f1_oracle(60.0, ACTIVE, g)


# ---------------------------------------------------------------------------
# off-shell oracle

def test_f2_oracle_inactive_orthogonal_vanishes():
    assert abs(f2_oracle(2.0, INACTIVE3, ORTH)) < 1e-6


def test_f2_oracle_matches_closed_form():
    for x, m, geo in ((2.0, VACUUM, SYNTROPIC), (2.0, ACTIVE, ORTH),
                      (4.0, ACTIVE, ISO), (2.0, ACTIVE, ORTH_DOWN)):
        want = f2(x, m, geometry_factors(geo))
        got = f2_oracle(x, m, geo)
        assert abs(got - want) / max(abs(want), 0.01) < 1e-3


def test_f2_oracle_isolates_nonresonant_term():
    # subtracting the trigonometric part of the closed form from the oracle
    # must leave the Laplace-tail (I1/I2) contribution
    x, m, geo = 2.0, ACTIVE, ORTH
    inv = geometry_factors(geo)
    aux = 0.0
    for s, n in m.channels:
        y = n * x
        aux += -(3 * n / 8) * s * inv.c * (2 / math.pi) * (
            aux_i1(y).value / y + aux_i2(y).value / y**2)
    trig_only = f2(x, m, inv) - aux
    isolated = f2_oracle(x, m, geo) - trig_only
    assert abs(isolated - aux) / abs(aux) < 1e-3


def test_f2_oracle_helicity_swap_symmetry():
    g_flip = normalize_geometry(ORTH.d1_hat, ORTH.d2_hat, -ORTH.r_hat, 1.0)
    swapped = MediumChirality(ACTIVE.n_right, ACTIVE.n_left)
    a = f2_oracle(2.0, ACTIVE, ORTH)
    b = f2_oracle(2.0, swapped, g_flip)
    assert abs(a - b) < 1e-9


def test_f2_oracle_divergence_detected():
    # the refined pass must differ from the base pass also where n*x > 2 pi
    # in both channels (6.0, (3.25, 1.75)): an impossible tolerance fails
    for x, m in ((2.0, ACTIVE), (6.0, MediumChirality(3.25, 1.75))):
        with pytest.raises(OracleDivergence):
            f2_oracle(x, m, ORTH, refine_tol=1e-16)


def test_f2_oracle_deterministic():
    m = MediumChirality(3.25, 1.75)
    a = f2_oracle(6.0, m, ISO)
    b = f2_oracle(6.0, m, ISO)
    assert a == b
