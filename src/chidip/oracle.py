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
Both oracles share one angular reduction, and it has one quadrature.  With
the polar axis along r_hat the phase depends on mu = k_hat.r_hat only, and
the projected dyadic is quadratic in k_hat, so its average over phi follows
from the ring moments <k_hat> = mu r_hat and <k_hat k_hat> =
(1 - mu^2)/2 (1 - r_hat r_hat) + mu^2 r_hat r_hat: a polynomial in mu, with
no phi nodes.  The mu integral is done by Gauss-Legendre.  The on-shell
part (f1) evaluates that average at |k| = n_lambda k0; the off-shell part
(f2) additionally performs the radial principal-value integral over the
mode frequency.  Every Gauss-Legendre rule, polar or radial, comes from
_legendre_rule (Newton on the three-term recurrence, numpy alone), which
builds each size once per process.

Both oracles also share one phase kernel.  Every radial grid is made of
P equal-width Gauss-Legendre panels (f1 is a single panel of zero width at
k = 1), mid_p = mid_0 + 2 h p, and at the node mid_p + h xi_l of panel p
the phase factors as

    exp(i y (mid_p + h xi_l) mu_j) = exp(i y mid_p mu_j) exp(i y h xi_l mu_j).

With p = b B + j in blocks of b = ceil(sqrt(P)) panels, exp(i y mid_p mu_j)
is the block's start phase exp(i y mid_bB mu_j), folded into the (mu x
panel nodes) matrix, times the offset phase step^j, step = exp(i y 2 h
mu_j), one (b x mu) matrix for every block.  The phases come from
multiplication ladders.  The offsets double: rows 1 to 2^k times
step^(2^k) give rows 2^k + 1 to 2^(k+1), so row j carries about log2(j)
roundings (a running product carries j, and made the f2 oracle's rounding
error against phases taken in long double about twice as large).  Each
block's start is the previous one times step^b.  A grid's panel phases
thus take two exps per polar node, the step and the first start, where
a direct sum takes P, and temporaries of O(sqrt(P) n_polar + n_polar L)
reals.  Only the
real part of the sum is needed, the mu rule is symmetric and the phi
average at -mu is the conjugate of the one at +mu, so the angular
reduction keeps the mu > 0 half of the rule (every polar count is even)
with doubled weights, which halves the polar count the product sees.

Normalization is fixed analytically by the calibration limit: an inactive
medium with parallel dipoles must give n_bar/2 as x -> 0, which pins the
per-polarization weight to (3 n_lambda / 8) on a (dOmega/4pi)-normalized
angular average.  With M built on a right-handed frame (e1 x e2 = k_hat)
and the axis pointing from dipole 2 to dipole 1, the propagation phase
must carry +i for the helicity term to land on the same sign as the
closed form.

The radial integrand of f2, h(k) (1/(k-1) + 1/(k+1)) with its resonant
and non-resonant branch, is q(k)/(k-1) with q(k) = h(k) 2k/(k+1), one
integrand on every grid.  It grows ~k with undamped oscillation and is
only Abel summable, so a fixed truncation can never converge; instead the
pole window is integrated by symmetric-grid subtraction (exact PV fold of
q), and beyond the window the tail is accumulated in half-period segments
whose n partial sums are contracted to their binomial mean, weights
C(n-1, k) / 2^(n-1) (Euler acceleration of an alternating series).
The pole window is [0, 2] (k/k0), integrated on panels of 16
Gauss-Legendre points; the tail starts at 2 and has at least 48 segments
of 10 points, and always reaches at least k/k0 = 50 before acceleration.
Each distinct index has its own grids and polar rules, so the value of
one channel never depends on the other's index.  The projected dyadic is
linear in s, so the channels of one index (both, in an inactive medium)
are one pass with the summed weights, and their helicity terms cancel
exactly.  Each radial grid has its own polar rule, with at least 64 and
at least 0.55 z + 40 nodes, z the grid's largest phase argument y k,
rounded up to a multiple of 64 so that few sizes recur across x: the
window's z is 2y (it ends at k/k0 = 2), the tail's is y times its far
end.  These grids are fixed: the refinement check below, not a tuning
knob, guards their accuracy.

Each oracle checks itself against a refined pass: f1 (64 polar nodes)
against a rule with 128, f2 against a grid with twice the pole panels
(half their width), twice the tail segments (so the tail reaches twice as
far) and, per grid, the polar rule of its extent, never fewer than 128
nodes.

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

_N_POLAR = 64           # polar nodes of a base pass (f2: at least this)
_HALF_WINDOW = 1.0      # PV window [1 - 1, 1 + 1] around the pole at k/k0 = 1
_TAIL_START = 1.0 + _HALF_WINDOW
_TAIL_SEGMENTS = 48     # fewest half-period tail segments of a base pass
_K_MAX = 50.0           # the tail reaches at least this k/k0
# largest n*x either oracle takes: f2's grids grow as y, its cost as y^2
_Y_CEILING = 500.0


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


# the rules of the pole panels and of the tail segments
_POLE_X, _POLE_W = _legendre_rule(16)
_TAIL_X, _TAIL_W = _legendre_rule(10)


# ---------------------------------------------------------------------------
# angular reduction and phase kernel shared by both oracles

def _ring(g):
    """The invariants d2.d1, b = (d2.r_hat)(r_hat.d1) and c = r_hat.(d2 x d1)
    of the projected dyadic's ring average, once per oracle call."""
    return (g.d2_hat @ g.d1_hat, (g.d2_hat @ g.r_hat) * (g.r_hat @ g.d1_hat),
            g.r_hat @ np.cross(g.d2_hat, g.d1_hat))


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


def _panel_average(y, mid0, half, n_panels, nodes, mu, weighted):
    """Re of the (dOmega/4pi) angular average sum_j weighted[j]
    exp(i y kt mu[j]) / 2 at every radial factor kt = mid0 + 2 half p +
    half nodes[l], p < n_panels, of a grid from _panels; returns the (P x L)
    values.  mu and weighted are the folded half rule of _reduced_angular.
    Block B of b = ceil(sqrt(P)) panels is the (b x J) @ (J x L) product of
    the offset phases step^j, step = exp(i y 2 half mu), built by doubling,
    and the node matrix times the block's start phase, the previous start
    times step^b (module docstring): one real matmul of the stacked real
    and imaginary offsets with the node matrix viewed as reals, then one
    subtraction of the two halves that make the real part.
    """
    inner = (0.5 * weighted[:, None]
             * np.exp(1j * y * half * np.multiply.outer(mu, nodes)))
    block = math.isqrt(n_panels - 1) + 1            # ceil(sqrt(P))
    ladder = np.empty((block + 1, mu.size), dtype=complex)
    ladder[0] = 1.0
    ladder[1] = np.exp(2j * y * half * mu)
    done = 1                        # rows <= done hold step^j: double them
    while done < block:
        more = min(done, block - done)
        np.multiply(ladder[1:more + 1], ladder[done],
                    out=ladder[done + 1:done + more + 1])
        done += more
    offset = np.concatenate([ladder[:block].real, ladder[:block].imag])
    start = np.exp(1j * y * mid0 * mu)
    out = np.empty((-(-n_panels // block), block, nodes.size))
    for rows in out:
        prod = offset @ (start[:, None] * inner).view(float)
        np.subtract(prod[:block, 0::2], prod[block:, 1::2], out=rows)
        start *= ladder[block]
    return out.reshape(-1, nodes.size)[:n_panels]


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

def _f1_single(x, m, inv, n_polar):
    # one panel of zero half-width at kt = 1, one pass per distinct index
    return sum((3.0 * n / 8.0) * float(_panel_average(
        n * x, 1.0, 0.0, 1, np.zeros(1),
        *_reduced_angular(inv, hel, n_polar))[0, 0])
        for n, hel in _by_index(m).items())


def f1_oracle(x: float, m: MediumChirality, g: DipoleGeometry, *,
              refine_tol: float = 1e-9) -> float:
    """On-shell coefficient by angular quadrature of the mode sum at |k| = n k0.

    The explicit separation argument is used (g.x is not consulted, so one
    geometry object can serve a whole sweep).  The value of the 64-node
    polar rule is checked against a 128-node rule and OracleDivergence is
    raised if the two differ by more than refine_tol; the 64-node value is
    returned.  Raises InvalidSeparation unless x is one real number > 0
    with max(n_left, n_right) * x <= 500, and DomainError unless refine_tol
    is one real number > 0 (inf turns the check off).  Deterministic
    (fixed shapes and summation order).
    """
    x, refine_tol = _checked(x, m, refine_tol)
    inv = _ring(g)
    coarse = _f1_single(x, m, inv, _N_POLAR)
    fine = _f1_single(x, m, inv, 2 * _N_POLAR)
    if abs(fine - coarse) > refine_tol:
        raise OracleDivergence(
            f"f1 quadrature drift {abs(fine - coarse):.3e} > {refine_tol:.1e} "
            f"at x={x} with {_N_POLAR} polar nodes")
    return coarse


# ---------------------------------------------------------------------------
# off-shell (principal value) oracle

def _panels(a: float, b: float, n_panels: int):
    """First midpoint, common half-width and count of n equal panels on
    [a, b], the grid of _panel_average."""
    half = 0.5 * (b - a) / n_panels
    return a + half, half, n_panels


@functools.cache
def _euler_weights(n):
    """C(n-1, k) / 2^(n-1), k < n: n - 1 rounds of pairwise averaging of n
    partial sums as one dot.  The binomials come exact from the integer
    recurrence and int / int division rounds correctly, so every weight is
    correctly rounded and the weights are exactly symmetric.  Each n is
    built once per process and shared read-only."""
    c, scale, w = 1, 2 ** (n - 1), []
    for k in range(n):
        w.append(c / scale)
        c = c * (n - 1 - k) // (k + 1)
    w = np.array(w)
    w.flags.writeable = False
    return w


def _f2_single(x, m, inv, refine=1):
    """One pass of the f2 quadrature, one distinct index at a time; refine
    = 2 doubles the pole panel and tail segment counts of the base pass
    (refine = 1).  Each radial grid of an index takes its own polar rule,
    at least refine * _N_POLAR nodes and a multiple of _N_POLAR, from its
    own largest phase argument: the window's from y _TAIL_START, the
    tail's from y times its far end."""
    total = 0.0
    for n, hel in _by_index(m).items():
        y = n * x
        weight = 3.0 * n / 8.0
        seg_len = math.pi / y
        n_pan = refine * max(8, math.ceil(_TAIL_START * y / math.pi))
        n_seg = refine * max(_TAIL_SEGMENTS,
                             math.ceil((_K_MAX - _TAIL_START) / seg_len))

        # the half-width and nodes k of n equal panels on [a, b] and q(k) =
        # h(k) 2k/(k+1) at them, h(k) = weight k^3 times the angular average
        # on the polar rule of the grid's largest phase argument z = y b
        def q(a, b, n_panels, nodes):
            mid0, half, _ = grid = _panels(a, b, n_panels)
            n_polar = _N_POLAR * max(refine,
                                     math.ceil((0.55 * y * b + 40) / _N_POLAR))
            mids = mid0 + 2.0 * half * np.arange(n_panels)
            k = mids[:, None] + half * nodes
            return half, k, (weight * 2.0 * k**4 / (k + 1.0) * _panel_average(
                y, *grid, nodes, *_reduced_angular(inv, hel, n_polar)))

        # node (p, l) of the window's upper half mirrors (-1-p, -1-l) about 1
        half, k, q_pole = q(1.0 - _HALF_WINDOW, 1.0 + _HALF_WINDOW,
                            2 * n_pan, _POLE_X)
        fold = q_pole[n_pan:] - q_pole[n_pan - 1::-1, ::-1]
        pv = float((half * _POLE_W * fold / (k[n_pan:] - 1.0)).sum())
        half, k, q_tail = q(_TAIL_START, _TAIL_START + n_seg * seg_len, n_seg,
                            _TAIL_X)
        partial = np.cumsum((half * _TAIL_W * q_tail / (k - 1.0)).sum(1))
        total += (pv + float(_euler_weights(n_seg) @ partial)) / math.pi
    return total


def f2_oracle(x: float, m: MediumChirality, g: DipoleGeometry, *,
              refine_tol: float = 1e-4) -> float:
    """Off-shell coefficient by angular reduction + radial PV quadrature.

    The pole window is integrated by symmetric-grid subtraction and the
    oscillatory tail by half-period segmentation with Euler's binomial mean
    (see module docstring).  The value is re-computed on a refined grid:
    twice the pole panels and tail segments of the base grid, and per
    grid the polar rule of the refined extent (at least 128 nodes).
    OracleDivergence is raised if the two runs differ by more than
    refine_tol * max(|value|, 0.01); raises on x (n x above 500) and
    refine_tol as f1_oracle does, and costs about (n x)^2 below that.
    Returns the base-grid value.
    """
    x, refine_tol = _checked(x, m, refine_tol)
    inv = _ring(g)
    coarse = _f2_single(x, m, inv)
    fine = _f2_single(x, m, inv, refine=2)
    drift = abs(fine - coarse)
    scale = max(abs(fine), 0.01)
    if drift > refine_tol * scale:
        raise OracleDivergence(
            f"f2 radial/angular refinement drift {drift:.3e} exceeds "
            f"{refine_tol:.1e} * {scale:.3g} at x={x}")
    return coarse
