"""Brute-force mode-sum verification of the closed-form collective coefficients.

This module recomputes F1 and F2 directly from the photon-mode level: every
mode contributes its transverse dyadic

    M(k_hat, s) = e1 e1 + e2 e2 + s*i (e1 e2 - e2 e1),

projected between the two dipole orientations and weighted by the
propagation phase exp(i n_lambda x k_hat.r_hat).  M does not depend on the
choice of (e1, e2), so the projection is evaluated frame-free,

    d2 . M(k_hat, s) . d1 = d2.d1 - (k_hat.d2)(k_hat.d1) + s i k_hat.(d2 x d1),

and no transverse frame is built (the tests build M from an explicit
frame as the reference for this form).
Both oracles share one angular reduction.  With the polar axis along r_hat
the phase depends on mu = k_hat.r_hat only, and the projected dyadic is
quadratic in k_hat, so its average over phi follows from the ring moments
<k_hat> = mu r_hat and <k_hat k_hat> = (1 - mu^2)/2 (1 - r_hat r_hat) +
mu^2 r_hat r_hat: with b = (d2.r_hat)(r_hat.d1) and c = r_hat.(d2 x d1),
the quadratic alpha + beta mu^2 + i s c mu in mu, alpha = (d2.d1 + b)/2
and beta = (d2.d1 - 3b)/2, with no phi nodes.  The on-shell part (f1)
evaluates the mu average at |k| = n_lambda k0 by Gauss-Legendre; the
off-shell part (f2) needs it at every node of a radial principal-value
integral over the mode frequency, and takes it there exactly: the averages
of 1, mu and mu^2 against exp(i z mu) over mu in [-1, 1] are

    m0 = sin z / z,   i m1 = i (m0 - cos z) / z,
    m2 = m0 + 2 (cos z - m0) / z^2,

so the average is alpha m0 + beta m2 - s c m1 (real).  That is linear in
sin z and cos z, S sin z + C cos z with S and C rational in z, so f2
takes S and C at every radial node and the phases only where it cannot
reuse them (below).  A test checks these moments against Gauss-Legendre
on the same polynomial, and A6 checks Gauss-Legendre against f1.  Every
Gauss-Legendre rule, polar or radial, comes from _legendre_rule (Newton
on the three-term recurrence, numpy alone), which builds each size once
per process.

Normalization is fixed analytically by the calibration limit: an inactive
medium with parallel dipoles must give n_bar/2 as x -> 0, which pins the
per-polarization weight to (3 n_lambda / 8) on a (dOmega/4pi)-normalized
angular average.  With M built on a right-handed frame (e1 x e2 = k_hat)
and the axis pointing from dipole 2 to dipole 1, the propagation phase
must carry +i for the helicity term to land on the same sign as the
closed form.

The radial integrand of f2, h(k) (1/(k-1) + 1/(k+1)) with its resonant
and non-resonant branch, is q(k)/(k-1) with q(k) = h(k) 2k/(k+1), one
integrand on every grid.  It grows ~k^2 with undamped oscillation and is
only Abel summable, so a fixed truncation can never converge; instead the
pole window is integrated by symmetric-grid subtraction (exact PV fold of
q), and beyond the window the tail is accumulated in half-period segments
(pi/y in k/k0) whose n partial sums are contracted to their binomial mean,
weights C(n-1, k) / 2^(n-1) (Euler acceleration of an alternating series).
The pole window is [0, 2] (k/k0), integrated on panels of 16
Gauss-Legendre points, folded onto its upper half [1, 2] against the
mirror nodes 2 - k, which are exact in floating point; those nodes and
weights depend on the panel count alone and are kept per count.
The tail starts at 2 and has 48 segments at every y.  Euler's mean of n
partial sums is exact where the segment amplitudes are a polynomial in j
of degree below n - 1; their nearest singularity, k = 1, lies y/pi
segments before the tail, so they only get smoother as y grows.  Each
segment is split into ceil(pi/(2y)) equal panels of 10 Gauss-Legendre
points, so no panel is wider than 2 in k/k0 however long the half period,
and its panels are summed before the Euler mean.  Every segment is
segment 0 shifted by a multiple j of the half period, where sin(y k) and
cos(y k) are segment 0's times (-1)^j: the tail takes its phases once, on
segment 0's nodes with the rule weights folded in, and each segment's sum
is two dot products, so no sine is taken of a large argument y k.  The
split makes the tail grid grow as 1/y below y = pi/2, so f2 takes n x
from 0.01 up, where its two passes stay within about 20 MB.  Each
distinct index has its own grids, so the value of one channel never
depends on the other's index.
The projected dyadic is linear in s, so the channels of one index (both,
in an inactive medium) are one pass with the summed weights, and their
helicity terms cancel exactly.  These grids are fixed: the refinement
check below, not a tuning knob, guards their accuracy.

Each oracle checks itself against a refined pass.  f1 takes 64 *
ceil((0.55 y + 40) / 64) polar nodes (64 up to y = 43) and checks them
against twice as many.  f2's refined grid has twice the pole panels (half
their width), twice the tail segments (so the tail reaches twice as far)
and twice the panels per segment, so its drift sees every radial rule and
the tail's reach; the angular moments are exact and have no rule to
refine.  Each oracle evaluates its two passes together, one distinct
index at a time: their nodes are one grid, kept per count with each
pass's weights on its own nodes and 0 on the other's, so one ring
average, one set of phases and one matrix product serve both.  Each pass
is the same rule and its value is the same sum as when evaluated apart,
up to the order of rounding, so the drift means what it did.

These functions are verification fixtures: production code should use the
closed forms in :mod:`chidip.collective`, which are ~10^3 x faster.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._arrays import one_float
from .collective import MediumChirality
from .errors import DomainError, InvalidSeparation, OracleDivergence
from .geometry import DipoleGeometry, _separation

_N_POLAR = 64           # f1's polar nodes come in multiples of this
_HALF_WINDOW = 1.0      # PV window [1 - 1, 1 + 1] around the pole at k/k0 = 1
_TAIL_START = 1.0 + _HALF_WINDOW
_TAIL_SEGMENTS = 48     # half-period tail segments of a base pass
# largest n*x either oracle takes: f1's rule and f2's pole window grow as y
_Y_CEILING = 500.0
# smallest n*x f2 takes: its tail grid grows as 1/y below y = pi/2
_Y_FLOOR = 0.01


@functools.cache
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Tricomi's estimates of the nodes x >= 0 take three Newton steps on the
    three-term recurrence, and one more pass gives P_n' at the polished
    nodes for the weights 2 / ((1 - x^2) P_n'(x)^2).  The nodes x < 0
    mirror them, so the rule is exactly symmetric.  Each size is built once
    per process; the arrays are shared, so they are read-only.
    """
    theta = np.pi * (np.arange(n // 2 + 1, n + 1) - 0.25) / (n + 0.5)
    x = -(1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(theta)
    for step in range(4):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if step < 3:
            x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp**2)
    lower = slice(n % 2, None)  # the node 0 of an odd rule is its own mirror
    rule = (np.concatenate([-x[lower][::-1], x]),
            np.concatenate([w[lower][::-1], w]))
    for a in rule:
        a.flags.writeable = False
    return rule


# the Gauss-Legendre points of a pole panel and of a tail panel
_POLE_POINTS = 16
_TAIL_POINTS = 10
# the rules and grids kept per count (the `verify` request sets of seeds
# 1, 23, 47 and 89 together take 15 panel rules, 5 pole grids, 3 tail
# grids and 1 polar grid)
_RULES_KEPT = 64


# ---------------------------------------------------------------------------
# angular reduction shared by both oracles

def _ring(g):
    """The invariants d2.d1, b = (d2.r_hat)(r_hat.d1) and c = r_hat.(d2 x d1)
    of the projected dyadic's ring average, once per oracle call; c by
    components, in Python floats, as np.cross costs ~25 us on one 3-vector
    and numpy scalars cost ~0.1 us an operation."""
    d1, d2, r = g.d1_hat, g.d2_hat, g.r_hat
    dot21, b = d2 @ d1, (d2 @ r) * (r @ d1)
    (u1, u2, u3), (v1, v2, v3), (r1, r2, r3) = (d1.tolist(), d2.tolist(),
                                                r.tolist())
    c = (r1 * (v2 * u3 - v3 * u2) + r2 * (v3 * u1 - v1 * u3)
         + r3 * (v1 * u2 - v2 * u1))
    return dot21, b, c


def _by_index(m):
    """Each distinct index of m mapped to its channels' helicities, in
    channel order (an inactive medium: {n: (1.0, -1.0)})."""
    groups = {}
    for s, n in m.channels:
        groups[n] = groups.get(n, ()) + (s,)
    return groups


def _two_passes(base, refined):
    """The rules (nodes, weights) of an oracle's two passes as one grid:
    their nodes, concatenated, and a (2, nodes) matrix whose row p holds
    pass p's weights on its own nodes and 0 on the other's."""
    (t0, w0), (t1, w1) = base, refined
    w = np.zeros((2, t0.size + t1.size))
    w[0, :t0.size], w[1, t0.size:] = w0, w1
    return np.concatenate([t0, t1]), w


@functools.lru_cache(maxsize=_RULES_KEPT)
def _polar_grid(n_polar):
    """The mu > 0 halves of the n_polar- and the 2 n_polar-point
    Gauss-Legendre rules (n_polar even), f1's two passes, with doubled
    weights, as one grid of _two_passes.  Each n_polar is built once while
    cached and shared read-only."""
    halves = []
    for n in (n_polar, 2 * n_polar):
        x, w = _legendre_rule(n)
        halves.append((x[n // 2:], 2.0 * w[n // 2:]))
    grid = _two_passes(*halves)
    for a in grid:
        a.flags.writeable = False
    return grid


def _reduced_angular(inv, hel, n_polar):
    """The nodes mu of _polar_grid(n_polar) and, per pass, the phi-averaged
    projected dyadic summed over the helicities hel of one index's
    channels, times that pass's mu weights (polar axis along r_hat): a
    (2, nodes) complex matrix.  With inv = (d2.d1, b, c) from _ring, the
    ring moments of the module docstring give for helicity s

        d2.d1 - [(1 - mu^2)/2 (d2.d1 - b) + mu^2 b] + s i mu c,

    linear in s: the sum is len(hel) times the even part plus sum(hel)
    times the helicity term, which hel = (1.0, -1.0) cancels exactly.  Its
    value at -mu is the conjugate of its value at +mu and each rule is
    symmetric, so the node at -mu is folded onto +mu: the real part of the
    full mu sum is the half sum with doubled weights.
    """
    mu, wmu = _polar_grid(n_polar)
    d21, b, c = inv
    even = d21 - (0.5 * (1.0 - mu**2) * (d21 - b) + mu**2 * b)
    return mu, wmu * (len(hel) * even + sum(hel) * 1j * mu * c)


def _ring_average(z, inv, hel):
    """The (dOmega/4pi) average of the projected dyadic of _reduced_angular,
    summed over hel, times exp(i z mu), at every z > 0 of the array z, as
    the pair (S, C) of arrays with the average S sin z + C cos z.  The
    exact moments of the module docstring give alpha m0 + beta m2 - gamma
    m1, alpha = len(hel) (d2.d1 + b)/2, beta = len(hel) (d2.d1 - 3b)/2 and
    gamma = sum(hel) c, which is linear in sin z and cos z: with u = 1/z
    and t = u (gamma + 2 beta u), S = u (alpha + beta - t) and C = t.  S
    sin z and C cos z cancel to O(1) from terms of size 1/z^2, so the
    average errs by about eps (1 + 1/z^2) times |alpha| + |beta| +
    |gamma|; in f2's q(k) the factor k^4 holds that to eps k^2 / y^2,
    below the rounding of the sums at every y f2 takes.
    """
    d21, b, c = inv
    alpha = len(hel) * 0.5 * (d21 + b)
    beta = len(hel) * 0.5 * (d21 - 3.0 * b)
    gamma = sum(hel) * c
    u = 1.0 / z
    t = u * (gamma + 2.0 * beta * u)
    return u * (alpha + beta - t), t


def _checked(x, m, refine_tol):
    """x and refine_tol as floats after the oracles' documented checks."""
    x = _separation(x)
    if max(m.n_left, m.n_right) * x > _Y_CEILING:
        raise InvalidSeparation(
            f"separation x={x} is too large for the oracle: n*x must stay "
            f"at or below {_Y_CEILING:g}")
    refine_tol = one_float(refine_tol, DomainError, "refine_tol")
    if not refine_tol > 0.0:
        raise DomainError(f"refine_tol must be > 0, got {refine_tol}")
    return x, refine_tol


# ---------------------------------------------------------------------------
# on-shell oracle

def _f1_passes(x, m, inv):
    """The base and the refined pass of the f1 quadrature, as Python
    floats: per distinct index, one set of phases on the nodes of both
    polar rules, 64 * ceil((0.55 y + 40) / 64) and twice as many, and one
    matrix product with their weights."""
    total = 0.0
    for n, hel in _by_index(m).items():
        y = n * x
        n_polar = _N_POLAR * math.ceil((0.55 * y + 40) / _N_POLAR)
        mu, w = _reduced_angular(inv, hel, n_polar)
        average = (w @ np.exp(1j * y * mu)).real / 2
        total = total + (3.0 * n / 8.0) * average
    return tuple(total.tolist())


def f1_oracle(x: float, m: MediumChirality, g: DipoleGeometry, *,
              refine_tol: float = 1e-9) -> float:
    """On-shell coefficient by angular quadrature of the mode sum at |k| = n k0.

    The explicit separation argument is used (g.x is not consulted, so one
    geometry object can serve a whole sweep).  Each index n takes a polar
    rule of 64 * ceil((0.55 n x + 40) / 64) nodes (64 up to n x = 43); its
    value is checked against a rule of twice as many nodes and
    OracleDivergence is raised if the two differ by more than refine_tol;
    the base value is returned.  Raises InvalidSeparation unless x is one
    real number > 0 with max(n_left, n_right) * x <= 500, and DomainError
    unless refine_tol is one real number > 0 (inf turns the check off).
    Deterministic (fixed shapes and summation order).
    """
    x, refine_tol = _checked(x, m, refine_tol)
    coarse, fine = _f1_passes(x, m, _ring(g))
    if abs(fine - coarse) > refine_tol:
        raise OracleDivergence(
            f"f1 quadrature drift {abs(fine - coarse):.3e} > {refine_tol:.1e} "
            f"at x={x}")
    return coarse


# ---------------------------------------------------------------------------
# off-shell (principal value) oracle

@functools.lru_cache(maxsize=_RULES_KEPT)
def _unit_panels(n_panels, n_points):
    """n_panels equal panels of the n_points Gauss-Legendre rule on [0, 1]:
    the nodes, ascending, and their weights, flattened.  Each pair is built
    once while cached and shared read-only."""
    x, w = _legendre_rule(n_points)
    half = 0.5 / n_panels
    rule = ((half * (2.0 * np.arange(n_panels)[:, None] + 1.0 + x)).ravel(),
            np.tile(half * w, n_panels))
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.cache
def _euler_weights(n):
    """C(n-1, k) / 2^(n-1), k < n: n - 1 rounds of pairwise averaging of n
    partial sums as one dot.  The binomials are exact integers and int /
    int division rounds correctly, so every weight is correctly rounded and
    the weights are exactly symmetric.  Each n (48 and 96 in f2) is built
    once per process and shared read-only."""
    w = np.array([math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)])
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=_RULES_KEPT)
def _pole_grid(n_pan):
    """The pole window folded onto its upper half [1, 2], for both passes:
    the base pass's n_pan panels of 16 points then the refined pass's 2
    n_pan, as the nodes (2 x 48 n_pan) of the upper half k and of their
    mirrors 2 - k (exact in floating point for k in [1, 2]), 2k^4 / (k + 1)
    at both rows, and a (2, 48 n_pan) matrix whose row p holds pass p's
    PV weights w / (k - 1) of the fold q(k) - q(2 - k) on its own nodes
    and 0 elsewhere.  Each n_pan is built once while cached and shared
    read-only."""
    t, w = _two_passes(_unit_panels(n_pan, _POLE_POINTS),
                       _unit_panels(2 * n_pan, _POLE_POINTS))
    k = 1.0 + _HALF_WINDOW * t
    nodes = np.array([k, 2.0 - k])
    grid = (nodes, 2.0 * nodes**4 / (nodes + 1.0),
            _HALF_WINDOW * w / (k - 1.0))
    for a in grid:
        a.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=_RULES_KEPT)
def _tail_grid(split):
    """Segment 0 of the tail in units of its half period, for both passes:
    the nodes t in [0, 1] of the base pass's split panels of 10 points then
    of the refined pass's 2 split (10 split, then 20 split), and each
    node's weight in its own pass.  Each split is built once while cached
    and shared read-only."""
    t, w = _two_passes(_unit_panels(split, _TAIL_POINTS),
                       _unit_panels(2 * split, _TAIL_POINTS))
    grid = (t, w[0] + w[1])
    for a in grid:
        a.flags.writeable = False
    return grid


# per tail segment j of both passes, one row: j, and 2 (-1)^j, the factor
# of segment j's q(k) / (k - 1) that is neither phase nor ring average
_SEGMENT = np.arange(2.0 * _TAIL_SEGMENTS)[:, None]
_TWO_SIGNS = 2.0 * (1.0 - 2.0 * (_SEGMENT % 2.0))


def _f2_sums(y, inv, hel):
    """The sums of q(k) / (k - 1) of f2's two passes at y = n x, without
    the channel weight 3n/8: the pole window's PV sums, an array of 2, and
    each pass's sums over its half-period tail segments from k/k0 = 2, 48
    for the base pass and 96 for the refined one.  The base pass has
    max(8, ceil(2 y / pi)) pole panels and ceil(pi / (2 y)) panels per
    segment, the refined pass twice as many of each.

    Both passes' nodes are one grid of 96 segments: one ring average on the
    pole nodes and every tail node, and one sin and cos on the pole nodes
    and segment 0's.  Segment j is segment 0 shifted by j pi / y, where
    sin(y k) and cos(y k) are segment 0's times (-1)^j: the rule weights
    are folded onto segment 0's phases (ws, wc), and a pass's segment sums
    are GS @ ws + GC @ wc on its own segments and nodes, GS and GC the
    ring-average factors S and C times (-1)^j 2k^4 / ((k + 1)(k - 1)); so
    no sine is taken of a large argument y k.
    """
    nodes, k4, w_pole = _pole_grid(max(8, math.ceil(_TAIL_START * y
                                                    / math.pi)))
    t, w_tail = _tail_grid(math.ceil(math.pi / y / 2.0))
    seg_len = math.pi / y
    k = (_TAIL_START + seg_len * t) + seg_len * _SEGMENT
    z = y * np.concatenate([nodes.ravel(), k.ravel()])
    s, c = _ring_average(z, inv, hel)
    head = nodes.size + t.size                  # the pole and segment 0
    sin, cos = np.sin(z[:head]), np.cos(z[:head])
    del z

    # q(k) = h(k) 2k/(k+1), h(k) = (3n/8) k^3 times the ring average,
    # less the factor 3n/8 until the end: the window's upper half against
    # its mirror
    pole, tail = slice(nodes.size), slice(nodes.size, None)
    q = k4.ravel() * (s[pole] * sin[pole] + c[pole] * cos[pole])
    pv = w_pole @ (q[:nodes.shape[1]] - q[nodes.shape[1]:])

    w = seg_len * w_tail
    ws, wc = w * sin[tail], w * cos[tail]
    # (-1)^j 2k^4 / (k^2 - 1), in place on k, then on S and C
    k *= k
    g = _TWO_SIGNS * k
    g *= k
    k -= 1.0
    g /= k
    gs, gc = s[tail].reshape(g.shape), c[tail].reshape(g.shape)
    gs *= g
    gc *= g
    base = t.size // 3
    return pv, [gs[:n_seg, nodes_p] @ ws[nodes_p]
                + gc[:n_seg, nodes_p] @ wc[nodes_p]
                for n_seg, nodes_p in ((_TAIL_SEGMENTS, slice(base)),
                                       (2 * _TAIL_SEGMENTS,
                                        slice(base, None)))]


def _f2_passes(x, m, inv):
    """The base and the refined pass of the f2 quadrature, as Python
    floats, one distinct index at a time: the pole window's PV sum plus
    the Euler mean of the tail's partial sums, per pass."""
    total = 0.0
    for n, hel in _by_index(m).items():
        pv, sums = _f2_sums(n * x, inv, hel)
        tail = np.array([_euler_weights(seg.size) @ np.cumsum(seg)
                         for seg in sums])
        total = total + (3.0 * n / 8.0) * (pv + tail) / math.pi
    return tuple(total.tolist())


def f2_oracle(x: float, m: MediumChirality, g: DipoleGeometry, *,
              refine_tol: float = 1e-4) -> float:
    """Off-shell coefficient by angular reduction + radial PV quadrature.

    The pole window is integrated by symmetric-grid subtraction and the
    oscillatory tail by half-period segmentation with Euler's binomial mean
    (see module docstring); the angular average at each radial node is
    exact.  The value is re-computed on a refined grid: twice the pole
    panels, the tail segments and the panels per segment of the base grid.
    OracleDivergence is raised if the two runs differ by more than
    refine_tol * max(|value|, 0.01); raises on x (n x above 500) and
    refine_tol as f1_oracle does, and InvalidSeparation where min(n_left,
    n_right) * x < 0.01, where the split tail segments would take a grid
    growing as 1/(n x).  Only its pole window grows with n x: 16 max(8,
    ceil(2 n x / pi)) node pairs per pass.  Returns the base-grid value.
    """
    x, refine_tol = _checked(x, m, refine_tol)
    if min(m.n_left, m.n_right) * x < _Y_FLOOR:
        raise InvalidSeparation(
            f"separation x={x} is too small for the f2 oracle: n*x must stay "
            f"at or above {_Y_FLOOR:g}")
    coarse, fine = _f2_passes(x, m, _ring(g))
    drift = abs(fine - coarse)
    scale = max(abs(fine), 0.01)
    if drift > refine_tol * scale:
        raise OracleDivergence(
            f"f2 radial refinement drift {drift:.3e} exceeds "
            f"{refine_tol:.1e} * {scale:.3g} at x={x}")
    return coarse
