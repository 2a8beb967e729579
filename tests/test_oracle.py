import functools
import math
import subprocess
import sys
import time

import mpmath
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

from chidip import oracle
from chidip.oracle import (
    _euler_weights,
    _f2_sums,
    _legendre_rule,
    _polar_grid,
    _reduced_angular,
    _ring,
    _ring_average,
    _unit_panels,
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


# the fixed-point scale of the reference Gauss-Legendre rules: 120 bits,
# 36 digits, of which rounding over n <= 1152 recurrence steps leaves > 30
_FIX = 120
_ONE = 1 << _FIX


@functools.cache
def _reference_rule(n):
    """The nodes x >= 0 of the n-point Gauss-Legendre rule, ascending, and
    their weights, at 30 digits or better, rounded to float.  Each node is
    Newton's method on P_n, started from the float node of _legendre_rule,
    in fixed-point integers at 2^-120: k P_k = (2k - 1) x P_{k-1} - (k - 1)
    P_{k-2} gives P_n and P_{n-1}, P_n' = n (x P_n - P_{n-1}) / (x^2 - 1),
    and the weight is 2 (1 - x^2) / (n P_{n-1})^2, which is 2 / ((1 - x^2)
    P_n'^2) at a root of P_n.  A test checks it against mpmath's findroot
    on legendre(n, x)."""
    nodes, weights = [], []
    for start in _legendre_rule(n)[0][n // 2:]:
        x = int(start * _ONE)            # exact: a power-of-two scaling
        for _ in range(8):
            p, q = x, _ONE
            for k in range(2, n + 1):
                p, q = ((2 * k - 1) * (x * p >> _FIX) - (k - 1) * q) // k, p
            step = p * ((x * x >> _FIX) - _ONE) // (n * ((x * p >> _FIX) - q))
            x -= step
            if abs(step) < 1 << 16:     # 2^-104: below 30 digits
                break
        else:
            raise AssertionError(f"no Newton convergence at n = {n}")
        nodes.append(x / _ONE)           # int / int rounds correctly
        weights.append(2 * (_ONE - (x * x >> _FIX)) * _ONE / (n * q) ** 2)
    return np.array(nodes), np.array(weights)


def _matches_reference(x, w):
    """Whether the rule (x, w) lies within 2 eps of the reference rule of
    its size at every node x >= 0, node by node and weight by weight
    (measured <= 0.75 eps for _legendre_rule, so a rule off by 4 eps
    fails); the nodes x < 0 mirror them exactly, which
    test_legendre_rule asserts on its own."""
    nodes, weights = _reference_rule(x.size)
    half = x.size // 2
    return (np.max(np.abs(x[half:] - nodes)) <= 2 * EPS
            and np.max(np.abs(w[half:] - weights)) <= 2 * EPS)


def test_reference_rule_matches_mpmath_findroot():
    # the fixed-point reference against mpmath's findroot on legendre(n, x)
    # at 30 digits, started from the float node, with the weight 2 (1 -
    # x^2) / (n P_{n-1}(x))^2: the middle node x >= 0 and the last, of the
    # smallest and the largest rule of test_legendre_rule; both round to
    # the same floats
    for n in (10, 1152):
        nodes, weights = _reference_rule(n)
        start = _legendre_rule(n)[0]
        with mpmath.workdps(30):
            for i in (n // 2, n - 1):
                x0 = mpmath.mpf(float(start[i]))
                x = mpmath.findroot(lambda t: mpmath.legendre(n, t),
                                    (x0, x0 * (1 + mpmath.mpf(2) ** -60)),
                                    verify=False)
                w = 2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2
                assert float(x) == nodes[i - n // 2], (n, i)
                assert float(w) == weights[i - n // 2], (n, i)


def test_legendre_rule():
    # ascending, exactly symmetric nodes and weights within 2 eps of the
    # 30-digit reference rule at every node, weights summing to 2, and sum
    # w cos(a mu) within 1e-14 of 2 sin(a)/a for a <= n/3, where an exact
    # n-point rule errs by less than rounding; each size is built once and
    # shared read-only.  A rule whose nodes or weights are off by 4 eps
    # fails the reference
    for n in (10, 16, 64, 128, 576, 1152):
        x, w = _legendre_rule(n)
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert _matches_reference(x, w)
        assert not _matches_reference(x + 4 * EPS, w)
        assert not _matches_reference(x, w - 4 * EPS)
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


def _passes(n_polar):
    """The polar rule sizes of f1's two passes and the slices of their
    nodes in _polar_grid(n_polar)."""
    return ((n_polar, slice(n_polar // 2)),
            (2 * n_polar, slice(n_polar // 2, None)))


def test_reduced_angular_matches_frame_built_ring_average():
    # d2 . M . d1 of frame-built M, averaged over an explicit 16-point phi
    # ring about r_hat at every node of the full rule, times the mu weights
    # and folded, against the oracle's closed-form phi moments and half
    # rule; for both passes, the n_polar-point rule and twice as many, each
    # on its own nodes with weight 0 on the other pass's
    rng = np.random.default_rng(25)
    phi = 2.0 * np.pi * np.arange(16) / 16
    for _ in range(5):
        g = _random_geometry(rng)
        e_a, e_b = _transverse_frame(g.r_hat)
        for n_polar in (12, 64):
            for s, _ in ACTIVE.channels:
                half_mu, weighted = _reduced_angular(_ring(g), (s,), n_polar)
                assert half_mu.shape == (3 * n_polar // 2,)
                assert weighted.shape == (2, half_mu.size)
                for p, (n, own) in enumerate(_passes(n_polar)):
                    mu, wmu = _legendre_rule(n)
                    assert_allclose(half_mu[own], _reference_rule(n)[0],
                                    rtol=0, atol=2 * EPS)
                    ring = np.array([[
                        g.d2_hat @ _mode_dyadic(
                            math.sqrt(1.0 - u * u)
                            * (math.cos(f) * e_a + math.sin(f) * e_b)
                            + u * g.r_hat, s)[3] @ g.d1_hat
                        for f in phi] for u in mu])
                    want = _fold(mu, wmu * ring.mean(axis=1))
                    assert_allclose(weighted[p, own], want, rtol=0,
                                    atol=1e-14)
                    others = np.ones(half_mu.size, dtype=bool)
                    others[own] = False
                    assert np.all(weighted[p, others] == 0.0)


def test_polar_grid_holds_both_rules():
    # the mu > 0 halves of the n_polar- and 2 n_polar-point rules, nodes
    # concatenated, each pass's doubled weights on its own nodes; kept per
    # count and shared read-only
    for n_polar in (12, 64, 576):
        grid = mu, w = _polar_grid(n_polar)
        for p, (n, own) in enumerate(_passes(n_polar)):
            x, wx = _legendre_rule(n)
            assert np.array_equal(mu[own], x[n // 2:])
            assert np.array_equal(w[p, own], 2.0 * wx[n // 2:])
            others = np.ones(mu.size, dtype=bool)
            others[own] = False
            assert np.all(w[p, others] == 0.0)
        assert _polar_grid(n_polar) is grid
        assert not (mu.flags.writeable or w.flags.writeable)


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
            assert both.shape == left.shape == right.shape == (2, mu.size)
            assert np.max(np.abs(both - (left + right))) \
                <= 4 * EPS * np.max(np.abs([left, right]))


# ---------------------------------------------------------------------------
# the exact ring average of f2 and its grids

def _random_ring(rng):
    """The invariants of a random geometry and a random helicity set: one
    channel of either helicity, or both channels of one index."""
    hel = ((1.0,), (-1.0,), (1.0, -1.0))[rng.integers(3)]
    return _ring(_random_geometry(rng)), hel


def _ring_scale(inv, hel):
    """|alpha| + |beta| + |gamma| of _ring_average's quadratic in mu."""
    d21, b, c = inv
    return (len(hel) * (abs(d21 + b) + abs(d21 - 3.0 * b)) / 2
            + abs(sum(hel) * c))


def _average(z, inv, hel):
    """S sin z + C cos z from _ring_average's (S, C) at the one float z."""
    s, c = _ring_average(np.array([z]), inv, hel)
    assert s.shape == c.shape == (1,)
    return float(s[0] * np.sin(z) + c[0] * np.cos(z))


def test_ring_average_matches_gauss_legendre_of_the_same_polynomial():
    # the exact moments, as S sin z + C cos z, against the folded
    # Gauss-Legendre rules of _reduced_angular, sized as f1_oracle sizes
    # them, both passes, at z from 1e-3 to 2e3: S and C cancel terms of size
    # 1/z^2 (measured <= 1.2 eps / z^2 of the scale), the rules round their
    # phases z mu (measured <= 7.2 eps)
    rng = np.random.default_rng(29)
    for z in np.geomspace(1e-3, 2e3, 60):
        inv, hel = _random_ring(rng)
        n_polar = 64 * math.ceil((0.55 * z + 40) / 64)
        mu, w = _reduced_angular(inv, hel, n_polar)
        got = _average(z, inv, hel)
        for want in (w @ np.exp(1j * z * mu)).real / 2:
            assert abs(got - want) \
                <= EPS * (32 + 2 / z**2) * _ring_scale(inv, hel)


def test_ring_average_matches_mpmath_moments():
    # m0 = sin z / z, m1 = (m0 - cos z) / z and m2 = m0 + 2 (cos z - m0) / z^2
    # at 30 digits against S sin z + C cos z, up to z = 5e4 (f2 at n x = 500
    # reaches z ~ 4.9e4), where Gauss-Legendre rules take minutes to build:
    # measured error <= 1.4 eps / z^2 of the scale below z = 1 and <= 0.6 of
    # the bound above it
    rng = np.random.default_rng(30)
    zs = np.geomspace(1e-3, 5e4, 120)
    invs = [_random_ring(rng) for _ in zs]
    with mpmath.workdps(30):
        for z, (inv, hel) in zip(zs, invs):
            d21, b, c = (mpmath.mpf(float(v)) for v in inv)
            v = mpmath.mpf(float(z))
            m0, cos = mpmath.sin(v) / v, mpmath.cos(v)
            m1 = (m0 - cos) / v
            m2 = m0 + 2 * (cos - m0) / v**2
            want = (len(hel) * ((d21 + b) * m0 + (d21 - 3 * b) * m2) / 2
                    - sum(hel) * c * m1)
            got = _average(z, inv, hel)
            assert abs(got - float(want)) <= EPS * (1 + 2 / z**2) \
                * _ring_scale(inv, hel), z


def test_f2_grids_split_the_tail_segments(monkeypatch):
    # the base pass's tail has 48 segments at every y and the refined
    # pass's 96; the refined pass doubles the pole panels and the panels
    # per segment, split = ceil(pi / (2 y)) and 2 split, and each pass's
    # Euler mean takes one partial sum per segment.  Per distinct index,
    # one pole grid and one tail grid hold both passes.  At x = 0.05, y =
    # 0.05 (n = 1) has half periods of 62.8 in k/k0, so segments of 32 and
    # 64 panels; y = 0.15 (n = 3) of 11 and 22.  From x = 20 to the ceiling
    # n x = 500 the segments have one and two panels.  The pole window has 2
    # max(8, ceil(2 y / pi)) panels, half of them on its upper half, which
    # the fold takes: 16 at x = 0.05, 26 and 78 at 20, 214 and 638 at 500 /
    # 3, and twice as many refined
    seen = []

    def pole(n_pan):
        grid = pole_grid(n_pan)
        seen.append(("pole", *(2 * np.count_nonzero(w) // 16
                               for w in grid[2])))
        return grid

    def tail(split):
        grid = tail_grid(split)
        t = grid[0]
        assert t.size == 30 * split
        assert np.array_equal(t[:10 * split], _unit_panels(split, 10)[0])
        assert np.array_equal(t[10 * split:], _unit_panels(2 * split, 10)[0])
        seen.append(("tail", split, 2 * split))
        return grid

    def sums(y, inv, hel):
        pv, segments = f2_sums(y, inv, hel)
        seen.append(("segments", *(seg.size for seg in segments)))
        return pv, segments

    def euler(n):
        seen.append(("euler", n))
        return euler_weights(n)

    pole_grid, tail_grid = oracle._pole_grid, oracle._tail_grid
    f2_sums, euler_weights = oracle._f2_sums, oracle._euler_weights
    monkeypatch.setattr(oracle, "_pole_grid", pole)
    monkeypatch.setattr(oracle, "_tail_grid", tail)
    monkeypatch.setattr(oracle, "_f2_sums", sums)
    monkeypatch.setattr(oracle, "_euler_weights", euler)
    inv = _ring(ORTH)
    m = MediumChirality(1.0, 3.0)
    for x, (pole1, split1, pole3, split3) in (
            (0.05, (16, 32, 16, 11)),
            (20.0, (26, 1, 78, 1)),
            (500.0 / 3.0, (214, 1, 638, 1))):
        seen.clear()
        oracle._f2_passes(x, m, inv)
        assert seen == [
            step
            for pole_panels, split in ((pole1, split1), (pole3, split3))
            for step in (("pole", pole_panels, 2 * pole_panels),
                         ("tail", split, 2 * split), ("segments", 48, 96),
                         ("euler", 48), ("euler", 96))], x


def test_unit_panels_are_the_rule_on_each_panel():
    # n equal panels of [0, 1], each carrying the Gauss-Legendre rule of
    # its size scaled to half-width 1/(2n), ascending; the weights sum to 1
    for n_panels, n_points in ((1, 10), (3, 10), (8, 16), (13, 16)):
        rule = t, w = _unit_panels(n_panels, n_points)
        x, wx = _legendre_rule(n_points)
        half = 0.5 / n_panels
        mids = half * (2.0 * np.arange(n_panels) + 1.0)
        assert_allclose(t, (mids[:, None] + half * x).ravel(), rtol=0,
                        atol=EPS)
        assert np.array_equal(w, np.tile(half * wx, n_panels))
        assert np.all(np.diff(t) > 0.0) and 0.0 < t[0] and t[-1] < 1.0
        assert abs(w.sum() - 1.0) <= 8 * EPS
        assert _unit_panels(n_panels, n_points) is rule
        assert not (t.flags.writeable or w.flags.writeable)


def test_pole_grid_is_the_exact_fold_of_the_window():
    # the upper half of the window [0, 2] of both passes, the base pass's
    # n_pan panels then the refined pass's 2 n_pan, and its mirror 2 - k,
    # exact in floating point, with 2k^4/(k+1) at both and each pass's PV
    # weights w / (k - 1) on its own nodes, 0 on the other's; kept per
    # panel count and shared read-only
    for n_pan in (8, 13, 78):
        nodes, k4, w = oracle._pole_grid(n_pan)
        rules = [_unit_panels(n, 16) for n in (n_pan, 2 * n_pan)]
        t = np.concatenate([rule[0] for rule in rules])
        assert nodes.shape == k4.shape == w.shape == (2, t.size)
        assert np.array_equal(nodes[0], 1.0 + t)
        assert np.array_equal(nodes[1], 2.0 - nodes[0])
        assert np.array_equal(nodes[0] - 1.0, 1.0 - nodes[1])
        assert_allclose(k4, 2.0 * nodes**4 / (nodes + 1.0), rtol=EPS)
        own = (slice(16 * n_pan), slice(16 * n_pan, None))
        for p, ((_, wt), mine, other) in enumerate(zip(rules, own,
                                                       own[::-1])):
            assert_allclose(w[p, mine], wt / (nodes[0, mine] - 1.0),
                            rtol=EPS)
            assert np.all(w[p, other] == 0.0)
        assert oracle._pole_grid(n_pan) is oracle._pole_grid(n_pan)
        assert not any(a.flags.writeable for a in (nodes, k4, w))


def test_tail_segments_match_a_direct_sum_at_30_digit_phases():
    # each segment's two dot products against the plain sum over its nodes
    # k of w 2k^4 / ((k + 1)(k - 1)) (S sin z + C cos z), z = z_0 + j pi,
    # with z_0 = y k_0 at segment 0's node and sin z and cos z taken at 30
    # digits, so no sign of the half-period shift is assumed; S and C are
    # _ring_average's at y k, which the moment tests above check.  Segments
    # 0, 1, the last and five at random of both passes of f2 from y = 0.05
    # to 500, the base pass's 48 on split = ceil(pi / (2 y)) panels of 10
    # points, the refined pass's 96 on 2 split; the bound is 2 eps of the
    # segment scale, the sum of w 2k^4 / ((k + 1)(k - 1)) (|S| + |C|) over
    # its nodes (measured <= 1.0)
    rng = np.random.default_rng(31)
    for y in (0.05, 0.15, 1.0, 20.0, 60.0, 500.0):
        inv, hel = _random_ring(rng)
        seg_len = math.pi / y
        split = math.ceil(math.pi / y / 2.0)
        passes = _f2_sums(y, inv, hel)[1]
        assert [seg.size for seg in passes] == [48, 96]
        for got, refine in zip(passes, (1, 2)):
            n_seg = got.size
            t, w = _unit_panels(refine * split, 10)
            k0 = 2.0 + seg_len * t
            z0, w = y * k0, seg_len * w
            segs = sorted({0, 1, n_seg - 1, *rng.integers(n_seg, size=5)})
            k = k0 + seg_len * np.array(segs)[:, None]
            s, c = _ring_average(y * k, inv, hel)
            with mpmath.workdps(30):
                for j, *row in zip(segs, k, s, c):
                    want = scale = 0
                    for z, wi, ki, si, ci in zip(z0, w, *row):
                        z = mpmath.mpf(float(z)) + int(j) * mpmath.pi
                        ki = mpmath.mpf(float(ki))
                        g = float(wi) * 2 * ki**4 / ((ki + 1) * (ki - 1))
                        want += g * (float(si) * mpmath.sin(z)
                                     + float(ci) * mpmath.cos(z))
                        scale += abs(g) * (abs(float(si)) + abs(float(ci)))
                    assert abs(got[j] - float(want)) \
                        <= 2 * EPS * float(scale), (y, refine, j)


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


def test_radial_rule_caches_are_bounded():
    # one bound covers the radial rules: a scan over many pole panel counts
    # keeps the latest _RULES_KEPT, not every one it met
    for n_pan in range(1, 101):
        grid = oracle._pole_grid(n_pan)
    assert oracle._pole_grid.cache_info().currsize == oracle._RULES_KEPT
    assert oracle._pole_grid(100) is grid
    assert {f.cache_info().maxsize for f in (
        oracle._unit_panels, oracle._pole_grid, oracle._tail_grid,
        oracle._polar_grid)} == {64}


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
    # the base and the refined polar rule agree to 1e-10, or the oracle raises
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
    # at x = 60 (n x = 270) the polar rule is sized from y, 192 nodes against
    # 384, and agrees with f1; the drift between them, measured 9.4e-16, is
    # not zero, so a tolerance below it must trip the node-doubling check
    rng = np.random.default_rng(23)
    g = _random_geometry(rng)
    want = f1(60.0, ACTIVE, geometry_factors(g))
    assert abs(f1_oracle(60.0, ACTIVE, g) - want) <= 5e-15
    with pytest.raises(OracleDivergence):
        f1_oracle(60.0, ACTIVE, g, refine_tol=1e-16)


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
        # measured worst 2.5e-13
        assert abs(got - want) / max(abs(want), 0.01) <= 1e-10


def _drift_cases(rng):
    # 40 cases with x log-uniform in [0.03, 10] and indices in [0.5, 3.25],
    # then 40 with max(n) x log-uniform in [pi, 500] and indices in [0.5, 4]
    for _ in range(40):
        x = math.exp(rng.uniform(math.log(0.03), math.log(10.0)))
        yield x, MediumChirality(*rng.uniform(0.5, 3.25, size=2))
    for _ in range(40):
        n = rng.uniform(0.5, 4.0, size=2)
        y = math.exp(rng.uniform(math.log(math.pi), math.log(500.0)))
        yield y / n.max(), MediumChirality(*n)


def test_f2_oracle_error_is_bounded_by_its_drift():
    # the drift between the base and the refined pass, which refines every
    # radial rule and the tail's reach, bounds the error against the closed
    # form: |f2 - f2_oracle| <= 10 drift + 1e-13 max(|f2|, 0.01), the floor
    # the rounding of the tail sums sets, up to the ceiling n x = 500, with
    # random directions; as fractions of max(|f2|, 0.01), the error beyond
    # ten drifts measured at most 1.5e-15, the worst error 1.1e-12
    rng = np.random.default_rng(7)
    for x, m in _drift_cases(rng):
        g = _random_geometry(rng)
        coarse, fine = oracle._f2_passes(x, m, _ring(g))
        drift = abs(fine - coarse)
        want = f2(x, m, geometry_factors(g))
        assert abs(coarse - want) <= 10 * drift + 1e-13 * max(abs(want),
                                                              0.01), (x, m)


def test_f2_oracle_matches_closed_form_at_large_separations():
    # at x = 20 and 50 (n x up to 150) the half periods are short and the
    # pole window has up to 96 panels per pass; A7 samples x = 20 in other
    # media
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
    # measured 3.0e-12
    assert abs(isolated - aux) / abs(aux) <= 1e-9


def test_f2_oracle_helicity_swap_symmetry():
    g_flip = normalize_geometry(ORTH.d1_hat, ORTH.d2_hat, -ORTH.r_hat, 1.0)
    swapped = MediumChirality(ACTIVE.n_right, ACTIVE.n_left)
    a = f2_oracle(2.0, ACTIVE, ORTH)
    b = f2_oracle(2.0, swapped, g_flip)
    assert abs(a - b) < 1e-9


def test_f2_oracle_channels_are_independent():
    # each helicity channel has its own grids, so exchanging
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
        tol = 1e-10 * max(abs(want), 0.01)
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


def test_f2_oracle_refuses_n_x_below_the_floor():
    # min(n_left, n_right) * x below 0.01 is refused at once, where the
    # split tail segments would need a grid growing as 1 / (n x); f1_oracle
    # has no such grid and takes it
    m = MediumChirality(0.5, 2.5)
    for x in (math.nextafter(0.02, 0.0), 1e-6, 5e-324):
        start = time.perf_counter()
        with pytest.raises(InvalidSeparation, match="at or above 0.01"):
            f2_oracle(x, m, ORTH)
        assert time.perf_counter() - start < 1.0
    f2_oracle(0.02, m, ORTH)
    assert abs(f1_oracle(1e-6, m, ISO) - f1(1e-6, m, geometry_factors(ISO))) \
        <= 5e-15


def test_f2_oracle_divergence_detected():
    # the refined pass must differ from the base pass where n*x > 2 pi in
    # both channels: an impossible tolerance fails; the drift measured
    # 3.2e-15 of scale at (6.0, ACTIVE) and 1.6e-15 at (6.0, (3.25, 1.75))
    for x, m in ((6.0, ACTIVE), (6.0, MediumChirality(3.25, 1.75))):
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
