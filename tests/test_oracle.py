import math
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chidip import (
    InvalidSeparation,
    MediumChirality,
    OracleDivergence,
    f1,
    f2,
    geometry_factors,
    normalize_geometry,
)
from chidip.specfun import aux_i1, aux_i2
from scipy.special import roots_legendre

from chidip import oracle
from chidip.oracle import (
    _euler_weights,
    _legendre_rule,
    _panel_average,
    _reduced_angular,
    _ring,
    f1_oracle,
    f2_oracle,
)

EPS = np.finfo(float).eps

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
# the mode dyadic, built from an explicit frame: the reference for the
# oracle's frame-free projection and its phi-averaged form

def _transverse_frame(k):
    """Right-handed transverse frame (e1 x e2 = k) of the unit vector k."""
    ref = np.array([0.0, 0.0, 1.0] if abs(k[2]) < 0.9 else [1.0, 0.0, 0.0])
    e1 = np.cross(ref, k)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(k, e1)


def _mode_dyadic(k, helicity, frame_angle=0.0):
    """k_hat, its frame (e1, e2) rotated by frame_angle about k_hat, and
    M(k_hat, s) = e1 e1 + e2 e2 + s i (e1 e2 - e2 e1) built on it."""
    k = np.asarray(k, dtype=float)
    k = k / np.linalg.norm(k)
    e1, e2 = _transverse_frame(k)
    ca, sa = math.cos(frame_angle), math.sin(frame_angle)
    e1, e2 = ca * e1 + sa * e2, -sa * e1 + ca * e2
    m = (np.outer(e1, e1) + np.outer(e2, e2)
         + helicity * 1j * (np.outer(e1, e2) - np.outer(e2, e1)))
    return k, e1, e2, m


def test_mode_dyadic_frame_and_projector():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = rng.normal(size=3)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        for hel in (+1.0, -1.0):
            k_hat, e1, e2, m = _mode_dyadic(k, hel)
            # the oracle's frame-free projection is d2 . M . d1
            proj = (d2 @ d1 - (k_hat @ d2) * (k_hat @ d1)
                    + hel * 1j * (k_hat @ np.cross(d2, d1)))
            assert abs(proj - d2 @ m @ d1) < 1e-12
            # orthonormal right-handed frame
            for u, v in ((e1, e2), (e1, k_hat), (e2, k_hat)):
                assert abs(u @ v) < 1e-12
            assert_allclose(np.cross(e1, e2), k_hat, atol=1e-12)
            # Hermitian, and symmetric part = transverse projector
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            sym = 0.5 * (m + m.T)
            assert np.max(np.abs(sym - (np.eye(3) - np.outer(k_hat, k_hat)))) \
                < 1e-12
            # transversality: nothing propagates along k
            assert np.max(np.abs(m @ k_hat)) < 1e-12


def test_mode_dyadic_is_frame_covariant():
    rng = np.random.default_rng(18)
    for _ in range(10):
        k = rng.normal(size=3)
        base = _mode_dyadic(k, -1.0)[3]
        rot = _mode_dyadic(k, -1.0, frame_angle=float(rng.uniform(0, 7)))[3]
        assert np.max(np.abs(rot - base)) < 1e-12


def test_legendre_rule():
    # ascending, exactly symmetric nodes within a few ulp of scipy's,
    # weights summing to 2, and sum w cos(a mu) within 1e-14 of 2 sin(a)/a
    # for a <= n/3, where an exact n-point rule errs by less than rounding
    # (scipy's rule misses by 5e-14 at n = 128, 3e-13 at n = 1152); each
    # size is built once and shared read-only
    for n in (10, 16, 64, 128, 576, 1152):
        x, w = _legendre_rule(n)
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert_allclose(x, roots_legendre(n)[0], rtol=0, atol=4 * EPS)
        assert abs(w.sum() - 2.0) <= 8 * EPS
        a = np.arange(1.0, n // 3 + 1)
        got = np.cos(np.multiply.outer(a, x)) @ w
        assert np.max(np.abs(got - 2.0 * np.sin(a) / a)) <= 1e-14
        assert _legendre_rule(n) is _legendre_rule(n)
        assert not (x.flags.writeable or w.flags.writeable)


def _fold(mu, weighted):
    """The -mu half of a full symmetric rule folded onto +mu: the weights
    whose half sum has the real part of the full sum."""
    lo = mu.size // 2
    folded = weighted[lo:] + weighted[:mu.size - lo][::-1].conj()
    if mu.size % 2:         # the node at mu = 0 is its own mirror
        folded[0] = weighted[lo]
    return folded


def test_reduced_angular_matches_frame_built_ring_average():
    # d2 . M . d1 of frame-built M, averaged over an explicit 16-point phi
    # ring about r_hat at every node of the full rule, times the mu weights
    # and folded, against the oracle's closed-form phi moments and half rule
    rng = np.random.default_rng(25)
    phi = 2.0 * np.pi * np.arange(16) / 16
    for _ in range(5):
        g = _random_geometry(rng)
        e_a, e_b = _transverse_frame(g.r_hat)
        for n_polar in (12, 64):
            mu, wmu = _legendre_rule(n_polar)
            for s, _ in ACTIVE.channels:
                half_mu, weighted = _reduced_angular(_ring(g), (s,), n_polar)
                assert_allclose(half_mu,
                                roots_legendre(n_polar)[0][n_polar // 2:],
                                rtol=0, atol=4 * EPS)
                ring = np.array([[
                    g.d2_hat @ _mode_dyadic(
                        math.sqrt(1.0 - u * u)
                        * (math.cos(p) * e_a + math.sin(p) * e_b)
                        + u * g.r_hat, s)[3] @ g.d1_hat
                    for p in phi] for u in mu])
                want = _fold(mu, wmu * ring.mean(axis=1))
                assert_allclose(weighted, want, rtol=0, atol=1e-14)


def test_reduced_angular_is_linear_in_helicity():
    # the channels of one index are one pass: the weights of (1.0, -1.0)
    # are the sum of the weights of (1.0,) and (-1.0,) up to rounding, and
    # their mu nodes are the same
    rng = np.random.default_rng(26)
    for _ in range(5):
        inv = _ring(_random_geometry(rng))
        for n_polar in (64, 128, 576):
            mu, both = _reduced_angular(inv, (1.0, -1.0), n_polar)
            mu_l, left = _reduced_angular(inv, (1.0,), n_polar)
            mu_r, right = _reduced_angular(inv, (-1.0,), n_polar)
            assert np.array_equal(mu, mu_l) and np.array_equal(mu, mu_r)
            assert np.max(np.abs(both - (left + right))) \
                <= 4 * EPS * np.max(np.abs([left, right]))


# ---------------------------------------------------------------------------
# the panel-factored phase kernel

def test_panel_average_matches_direct_node_sum():
    # the blocked (b x J) @ (J x L) products over the mu >= 0 half of the
    # rule, with folded weights, against one exp per radial node and polar
    # node of the full rule whose weights satisfy w(-mu) = conj w(mu), on
    # grids of equal panels running up (half > 0) and down (half < 0); the
    # panel counts give one block of one panel, one block of two, full
    # blocks (a square), a short last block (a square + 1), 299 panels, and
    # the 2400 and 4584 panels of the x = 50 tail grids, whose 49 and 68
    # blocks carry the start phase ladder furthest; up to 300 panels spread
    # evenly over the grid, its first and last among them, are compared.
    # A panel spans at most 2 pi of phase, and at most 600 pi over the
    # whole grid: the reference rounds each phase argument z to about
    # z eps, which past z ~ 10^4 alone exceeds the tolerance
    rng = np.random.default_rng(24)
    for n_polar, n_gl in ((8, 4), (31, 10), (64, 16), (301, 10), (1200, 16)):
        mu, wmu = roots_legendre(n_polar)
        lo = n_polar // 2
        upper = wmu[lo:] * (rng.normal(size=mu.size - lo)
                            + 1j * rng.normal(size=mu.size - lo))
        if n_polar % 2:     # the weight at mu = 0 is its own conjugate
            upper[0] = upper[0].real
        weighted = np.concatenate([upper[n_polar % 2:][::-1].conj(), upper])
        nodes, _ = roots_legendre(n_gl)
        for n_panels in (1, 2, 49, 50, 299, 2400, 4584):
            rows = np.unique(np.linspace(0, n_panels - 1, 300).astype(int))
            for sign in (1.0, -1.0):
                y = rng.uniform(0.5, 20.0)
                half = (sign * rng.uniform(0.0, 1.0) * math.pi / y
                        * min(1.0, 300 / n_panels))
                mid0 = rng.uniform(0.0, 2000.0 / y)
                got = _panel_average(y, mid0, half, n_panels, nodes, mu[lo:],
                                     _fold(mu, weighted))
                kt = ((mid0 + 2.0 * half * rows)[:, None] + half * nodes)
                phase = np.exp(1j * y * np.multiply.outer(kt, mu))
                want = 0.5 * (phase @ weighted).real
                assert got.shape == (n_panels, n_gl)
                assert_allclose(got[rows], want, rtol=1e-12, atol=1e-12)


def test_f2_grids_take_their_own_polar_rules(monkeypatch):
    # each radial grid of an index takes the polar rule of its own largest
    # phase argument z, 64 * max(refine, ceil((0.55 z + 40) / 64)) nodes:
    # the pole window's z = 2y (it ends at k/k0 = 2), the tail's z = y times
    # its far end.  At x = 20, y = 20 (n = 1) gives the window z = 40 (64
    # nodes) and the tail z = 1001 (640), y = 60 (n = 3) the window z = 120
    # (128) and the tail z = 3001 (1728); the refined pass has at least 128
    # nodes, and its tails reach twice as far (1152 and 3328 nodes)
    seen = []

    def recording(inv, hel, n_polar):
        seen.append((hel, n_polar))
        return reduced_angular(inv, hel, n_polar)

    reduced_angular = oracle._reduced_angular
    monkeypatch.setattr(oracle, "_reduced_angular", recording)
    inv = _ring(ORTH)
    m = MediumChirality(1.0, 3.0)
    for refine, rules in ((1, (64, 640, 128, 1728)),
                          (2, (128, 1152, 128, 3328))):
        seen.clear()
        oracle._f2_single(20.0, m, inv, refine)
        assert seen == [((1.0,), rules[0]), ((1.0,), rules[1]),
                        ((-1.0,), rules[2]), ((-1.0,), rules[3])]


def test_euler_weights_are_iterated_pairwise_averaging():
    # the binomial weights C(n-1, k) / 2^(n-1), built once per n and shared
    # read-only, are each correctly rounded (so exactly symmetric), and
    # their dot with n partial sums of an alternating series matches n - 1
    # rounds of pairwise averaging, the reference loop
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 48, 49, 596, 2400):
        w = _euler_weights(n)
        assert w.shape == (n,) and np.array_equal(w, w[::-1])
        assert _euler_weights(n) is w and not w.flags.writeable
        exact = [math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)]
        assert w.tolist() == exact
        for _ in range(5):
            partial = np.cumsum((-1.0) ** np.arange(n)
                                * rng.uniform(0.5, 2.0, size=n))
            averaged = partial
            while averaged.size > 1:
                averaged = 0.5 * (averaged[:-1] + averaged[1:])
            assert abs(w @ partial - averaged[0]) \
                <= 1e-15 * np.max(np.abs(partial))


# ---------------------------------------------------------------------------
# on-shell oracle

def test_f1_oracle_inactive_orthogonal_vanishes():
    # both channels of an inactive medium are one pass, whose helicity term
    # cancels exactly: the orthogonal pair sees exactly 0.0
    for x in (0.5, 2.0, 7.0):
        assert f1_oracle(x, INACTIVE3, ORTH) == 0.0


def test_f1_oracle_matches_closed_form_vacuum():
    got = f1_oracle(math.pi, VACUUM, SYNTROPIC)
    assert abs(got - (-3.0 / (4 * math.pi**2))) < 1e-8


def test_f1_oracle_matches_closed_form_active_isotropic():
    got = f1_oracle(2.0, ACTIVE, ISO)
    want = f1(2.0, ACTIVE, geometry_factors(ISO))
    assert abs(got - want) < 1e-12


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
    # as for f1: one pass for both channels, whose helicity term cancels
    # exactly
    for x in (0.5, 2.0, 7.0):
        assert f2_oracle(x, INACTIVE3, ORTH) == 0.0


def test_f2_oracle_matches_closed_form():
    for x, m, geo in ((2.0, VACUUM, SYNTROPIC), (2.0, ACTIVE, ORTH),
                      (4.0, ACTIVE, ISO), (2.0, ACTIVE, ORTH_DOWN)):
        want = f2(x, m, geometry_factors(geo))
        got = f2_oracle(x, m, geo)
        assert abs(got - want) / max(abs(want), 0.01) < 1e-3


def test_f2_oracle_matches_closed_form_on_multi_block_grids():
    # at x = 20 and 50 the tail grids have 306 to 4584 panels (and the Euler
    # mean as many partial sums) in 18 to 68 blocks of the phase kernel; A7
    # samples only x <= 4
    m = MediumChirality(1.0, 3.0)
    for x in (20.0, 50.0):
        for g in (ORTH, ISO):
            want = f2(x, m, geometry_factors(g))
            assert abs(f2_oracle(x, m, g) - want) <= 1e-10 * max(abs(want),
                                                                 0.01)


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


def test_f2_oracle_channels_are_independent():
    # each helicity channel has its own grid and polar rule, so exchanging
    # the n_right of two media leaves the sum of their f2 values unchanged
    # up to the rounding of the sums
    for g in (ORTH, ISO):
        a = (f2_oracle(3.0, MediumChirality(1.0, 3.0), g)
             + f2_oracle(3.0, MediumChirality(1.2, 2.5), g))
        b = (f2_oracle(3.0, MediumChirality(1.0, 2.5), g)
             + f2_oracle(3.0, MediumChirality(1.2, 3.0), g))
        assert abs(a - b) <= 4 * EPS * abs(b)


def test_oracles_see_helicity_only_in_an_active_medium():
    # the paper's contrast: with n_L = n_R the helicity terms of the two
    # channels cancel exactly, so the orthogonal-perpendicular pair has no
    # resonance interaction from either oracle, and flipping the axis, which
    # flips c only, changes no bit of either oracle; an active medium gives
    # the same pair an f2 that A7's tolerance separates from zero
    rng = np.random.default_rng(28)
    for m in (VACUUM, INACTIVE3, MediumChirality(1.7, 1.7)):
        for x in (0.5, 2.0, 5.0):
            for oracle in (f1_oracle, f2_oracle):
                assert oracle(x, m, ORTH) == 0.0
                assert oracle(x, m, ORTH_DOWN) == 0.0
    for _ in range(3):
        d1, d2, axis = rng.normal(size=(3, 3))
        g = normalize_geometry(d1, d2, axis, 1.0)
        g_flip = normalize_geometry(d1, d2, -axis, 1.0)
        inv, inv_flip = geometry_factors(g), geometry_factors(g_flip)
        assert (inv_flip.a, inv_flip.b, inv_flip.c) == (inv.a, inv.b, -inv.c)
        for oracle in (f1_oracle, f2_oracle):
            assert oracle(2.0, INACTIVE3, g) == oracle(2.0, INACTIVE3, g_flip)
    for x in (1.0, 2.0, 4.0):
        want = f2(x, ACTIVE, geometry_factors(ORTH))
        got = f2_oracle(x, ACTIVE, ORTH)
        tol = 1e-3 * max(abs(want), 0.01)
        assert abs(got - want) <= tol < abs(got)


def test_oracles_refuse_bad_separations():
    for x in (0.0, -1.0, math.nan, math.inf, np.array([1.0, 2.0]), "1",
              True):
        for oracle in (f1_oracle, f2_oracle):
            with pytest.raises(InvalidSeparation):
                oracle(x, ACTIVE, ORTH)


def test_oracles_refuse_n_x_beyond_the_ceiling():
    # max(n_left, n_right) * x above 500 (here n_right = 2.5) is refused
    # before any grid is built, so at once, where the grids would not fit in
    # memory or the float range
    m = MediumChirality(2.0, 2.5)
    for x in (math.nextafter(200.0, math.inf), 1e200, 1e308):
        for oracle in (f1_oracle, f2_oracle):
            start = time.perf_counter()
            with pytest.raises(InvalidSeparation, match="at or below 500"):
                oracle(x, m, ORTH)
            assert time.perf_counter() - start < 1.0


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


def test_package_does_not_load_scipy_integrate():
    # the I1/I2 quadrature references live in the tests; neither the CLI
    # nor the mode-sum oracle pulls in scipy's quadrature
    code = ("import sys, chidip.cli, chidip.oracle; "
            "print('scipy.integrate' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"


def test_package_and_cli_do_not_load_scipy():
    # the closed forms, the CLI and the oracle run on numpy alone: they load
    # no third-party package but numpy, and not numpy.typing (annotations
    # only); what a bare interpreter loads, such as site hooks, does not count
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import chidip, chidip.cli, chidip.oracle\n"
            "new = set(sys.modules) - bare\n"
            "print(sorted({k.split('.')[0] for k in new}"
            " - set(sys.stdlib_module_names) - {'chidip'}),"
            " 'numpy.typing' in new)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout == "['numpy'] False\n"
