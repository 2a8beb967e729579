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
The tail starts at 2 and has at least 48 segments, and always reaches at
least k/k0 = 50 before acceleration.  Each segment is split into
ceil(pi/(2y)) equal panels of 10 Gauss-Legendre points, so no panel is
wider than 2 in k/k0 however long the half period, and its panels are
summed before the Euler mean.  Every segment is segment 0 shifted by a
multiple j of the half period, where sin(y k) and cos(y k) are segment
0's times (-1)^j: the tail takes its phases once per pass, on segment
0's nodes with the rule weights folded in, and each segment's sum is two
dot products, so no sine is taken of a large argument y k.  The split
makes the tail grid grow as 1/y below y = pi/2, so f2 takes n x from 0.01
up, where its two passes stay within about 15 MB.  Each distinct index
has its own grids, so the value of one channel never depends on the
other's index.
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
refine.

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
_TAIL_SEGMENTS = 48     # fewest half-period tail segments of a base pass
_K_MAX = 50.0           # the tail reaches at least this k/k0
# largest n*x either oracle takes: f2's grids grow as y
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
# the radial rules and Euler weights kept per panel or segment count (a
# `verify` request set takes 120-136 segment counts; at most 31 MB kept)
_RULES_KEPT = 256


# ---------------------------------------------------------------------------
# angular reduction shared by both oracles

def _ring(g):
    """The invariants d2.d1, b = (d2.r_hat)(r_hat.d1) and c = r_hat.(d2 x d1)
    of the projected dyadic's ring average, once per oracle call; c by
    components, as np.cross costs ~25 us on one 3-vector."""
    d1, d2, r = g.d1_hat, g.d2_hat, g.r_hat
    c = (r[0] * (d2[1] * d1[2] - d2[2] * d1[1])
         + r[1] * (d2[2] * d1[0] - d2[0] * d1[2])
         + r[2] * (d2[0] * d1[1] - d2[1] * d1[0]))
    return d2 @ d1, (d2 @ r) * (r @ d1), c


def _by_index(m):
    """Each distinct index of m mapped to its channels' helicities, in
    channel order (an inactive medium: {n: (1.0, -1.0)})."""
    groups = {}
    for s, n in m.channels:
        groups[n] = groups.get(n, ()) + (s,)
    return groups


def _reduced_angular(inv, hel, n_polar):
    """The mu > 0 half of the n_polar-point Gauss-Legendre rule (n_polar
    even) and the phi-averaged projected dyadic, summed over the helicities
    hel of one index's channels, times the mu weights (polar axis along
    r_hat).  With inv = (d2.d1, b, c) from _ring, the ring moments of the
    module docstring give for helicity s

        d2.d1 - [(1 - mu^2)/2 (d2.d1 - b) + mu^2 b] + s i mu c,

    linear in s: the sum is len(hel) times the even part plus sum(hel)
    times the helicity term, which hel = (1.0, -1.0) cancels exactly.  Its
    value at -mu is the conjugate of its value at +mu and the rule is
    symmetric, so the node at -mu is folded onto +mu: the real part of the
    full mu sum is the half sum with doubled weights.
    """
    mu, wmu = _legendre_rule(n_polar)
    mu, wmu = mu[n_polar // 2:], 2.0 * wmu[n_polar // 2:]
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

def _f1_single(x, m, inv, refine=1):
    """One pass of the f1 quadrature, one distinct index at a time, on
    refine * 64 * ceil((0.55 y + 40) / 64) polar nodes."""
    total = 0.0
    for n, hel in _by_index(m).items():
        y = n * x
        n_polar = _N_POLAR * refine * math.ceil((0.55 * y + 40) / _N_POLAR)
        mu, w = _reduced_angular(inv, hel, n_polar)
        average = (w * np.exp(1j * y * mu)).real.sum() / 2
        total += (3.0 * n / 8.0) * float(average)
    return total


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
    inv = _ring(g)
    coarse = _f1_single(x, m, inv)
    fine = _f1_single(x, m, inv, refine=2)
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


@functools.lru_cache(maxsize=_RULES_KEPT)
def _euler_weights(n):
    """C(n-1, k) / 2^(n-1), k < n: n - 1 rounds of pairwise averaging of n
    partial sums as one dot.  The binomials come exact from the integer
    recurrence and int / int division rounds correctly, so every weight is
    correctly rounded and the weights are exactly symmetric.  Each n is
    built once while cached and shared read-only."""
    c, scale, w = 1, 2 ** (n - 1), []
    for k in range(n):
        w.append(c / scale)
        c = c * (n - 1 - k) // (k + 1)
    w = np.array(w)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=_RULES_KEPT)
def _pole_grid(n_pan):
    """The pole window folded onto its upper half [1, 2], on n_pan panels
    of 16 points: the nodes (2 x 16 n_pan) of the upper half k and of
    their mirrors 2 - k (exact in floating point for k in [1, 2]), 2k^4 /
    (k + 1) at both rows, and the PV weights w / (k - 1) of the fold q(k) -
    q(2 - k).  Each n_pan is built once while cached and shared
    read-only."""
    t, w = _unit_panels(n_pan, _POLE_POINTS)
    k = 1.0 + _HALF_WINDOW * t
    nodes = np.array([k, 2.0 - k])
    grid = (nodes, 2.0 * nodes**4 / (nodes + 1.0),
            _HALF_WINDOW * w / (k - 1.0))
    for a in grid:
        a.flags.writeable = False
    return grid


def _tail_segments(y, inv, hel, n_seg, split):
    """The sums of q(k) / (k - 1) over n_seg half-period tail segments from
    k/k0 = 2, each split into split panels of 10 points, without the
    channel weight 3n/8.  Segment j is segment 0 shifted by j pi / y, where
    sin(y k) and cos(y k) are segment 0's times (-1)^j: the phases are
    taken once, on segment 0's nodes with the rule weights folded in (ws,
    wc), and each segment's sum is GS @ ws + GC @ wc, GS and GC the
    ring-average factors S and C times 2k^4 / ((k + 1)(k - 1))."""
    seg_len = math.pi / y
    t, w = _unit_panels(split, _TAIL_POINTS)
    k0 = _TAIL_START + seg_len * t
    w = seg_len * w
    ws, wc = w * np.sin(y * k0), w * np.cos(y * k0)
    k = k0 + seg_len * np.arange(n_seg)[:, None]
    s, c = _ring_average(y * k, inv, hel)
    k2 = k * k
    g = 2.0 * k2 * k2 / (k2 - 1.0)
    sums = (g * s) @ ws + (g * c) @ wc
    sums[1::2] *= -1.0
    return sums


def _f2_single(x, m, inv, refine=1):
    """One pass of the f2 quadrature, one distinct index at a time; refine
    = 2 doubles the pole panels, the tail segments and the panels per tail
    segment of the base pass (refine = 1)."""
    total = 0.0
    for n, hel in _by_index(m).items():
        y = n * x
        seg_len = math.pi / y
        n_pan = refine * max(8, math.ceil(_TAIL_START * y / math.pi))
        n_seg = refine * max(_TAIL_SEGMENTS,
                             math.ceil((_K_MAX - _TAIL_START) / seg_len))
        split = refine * math.ceil(seg_len / 2.0)

        # q(k) = h(k) 2k/(k+1), h(k) = (3n/8) k^3 times the ring average,
        # less the factor 3n/8 until the end: the window's upper half
        # against its mirror, then the tail
        nodes, k4, w = _pole_grid(n_pan)
        z = y * nodes
        s, c = _ring_average(z, inv, hel)
        q = k4 * (s * np.sin(z) + c * np.cos(z))
        pv = float(w @ (q[0] - q[1]))
        partial = np.cumsum(_tail_segments(y, inv, hel, n_seg, split))
        tail = float(_euler_weights(n_seg) @ partial)
        total += (3.0 * n / 8.0) * (pv + tail) / math.pi
    return total


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
    growing as 1/(n x).  Its cost grows linearly in n x above n x ~ 1.
    Returns the base-grid value.
    """
    x, refine_tol = _checked(x, m, refine_tol)
    if min(m.n_left, m.n_right) * x < _Y_FLOOR:
        raise InvalidSeparation(
            f"separation x={x} is too small for the f2 oracle: n*x must stay "
            f"at or above {_Y_FLOOR:g}")
    inv = _ring(g)
    coarse = _f2_single(x, m, inv)
    fine = _f2_single(x, m, inv, refine=2)
    drift = abs(fine - coarse)
    scale = max(abs(fine), 0.01)
    if drift > refine_tol * scale:
        raise OracleDivergence(
            f"f2 radial refinement drift {drift:.3e} exceeds "
            f"{refine_tol:.1e} * {scale:.3g} at x={x}")
    return coarse
