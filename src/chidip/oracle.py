"""Brute-force mode-sum verification of the closed-form collective coefficients.

This module recomputes F1 and F2 directly from the photon-mode level: every
mode contributes its transverse dyadic

    M(k_hat, s) = e1 e1 + e2 e2 + s*i (e1 e2 - e2 e1),

projected between the two dipole orientations and weighted by the
propagation phase exp(i n_lambda x k_hat.r_hat).  M does not depend on the
choice of (e1, e2), so the projection is evaluated frame-free,

    d2 . M(k_hat, s) . d1 = d2.d1 - (k_hat.d2)(k_hat.d1) + s i k_hat.(d2 x d1),

and no transverse frame is built per mode direction (``mode_dyadic_sample``
builds M from an explicit frame and is the test reference for this form).
Both oracles share one angular reduction: with the polar axis along r_hat
the phase depends on mu = k_hat.r_hat only, so the projected dyadic is
averaged over phi (exact on a small uniform grid, since it is quadratic in
k_hat) and the mu integral is done by Gauss-Legendre
(``scipy.special.roots_legendre``).  The on-shell part (f1) evaluates that
average at |k| = n_lambda k0; the off-shell part (f2) additionally performs
the radial principal-value integral over the mode frequency, including the
non-resonant branch.

Both oracles also share one phase kernel.  Every radial grid is made of
equal-width Gauss-Legendre panels (f1 is a single panel of zero width at
k = 1), and at the node mid_p + h xi_l of panel p the phase factors as

    exp(i y (mid_p + h xi_l) mu_j) = exp(i y mid_p mu_j) exp(i y h xi_l mu_j),

so the weighted mu sum for a block of panels is one (panels x mu) @
(mu x panel nodes) matrix product: one exp per panel and polar node
instead of one per radial node and polar node.  Only the real part of the
sum is needed and the mu rule is symmetric, so the weights at -mu are
folded onto +mu first, which halves the polar count the product sees.
The kernel works through _PANEL_BLOCK panels at a time, which caps its
temporaries at _PANEL_BLOCK x n_polar/2 reals.

Normalization is fixed analytically by the calibration limit: an inactive
medium with parallel dipoles must give n_bar/2 as x -> 0, which pins the
per-polarization weight to (3 n_lambda / 8) on a (dOmega/4pi)-normalized
angular average.  With M built on a right-handed frame (e1 x e2 = k_hat)
and the axis pointing from dipole 2 to dipole 1, the propagation phase
must carry +i for the helicity term to land on the same sign as the
closed form.

The radial integral for f2 is genuinely improper: its integrand grows ~k
with undamped oscillation and is only Abel summable.  A fixed truncation
can therefore never converge; instead the pole window is integrated by
symmetric-grid subtraction (exact PV fold), and beyond the window the tail
is accumulated in half-period segments that are then contracted by iterated
pairwise averaging (Euler/Cesaro acceleration of an alternating series).
The pole window is [0, 2] (k/k0), integrated on panels of 16
Gauss-Legendre points; the tail starts at 2 and has at least 48 segments
of 10 points, and always reaches at least k/k0 = 50 before acceleration.
The polar rule has at least 64 and at least 0.55 z + 40 nodes, z the
largest radial phase argument y k of the grid.  These grids are fixed:
the refinement check below, not a tuning knob, guards their accuracy.

Each oracle checks itself against a refined pass: f1 (64 polar nodes)
against a rule with 128, f2 against a grid with twice the pole panels
(half their width), twice the tail segments (so the tail reaches twice as
far) and the polar rule of that longer grid, never fewer than 128 nodes.

The auxiliary integrals I1/I2 of :mod:`chidip.specfun` have their own
oracle here as well: adaptive quadrature of the defining integrals
(``aux_i1_quadrature``/``aux_i2_quadrature``), kept out of the production
modules so that importing them does not load ``scipy.integrate``.

These functions are verification fixtures: production code should use the
closed forms in :mod:`chidip.collective`, which are ~10^3 x faster.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import roots_legendre

from .collective import MediumChirality
from .errors import DomainError, OracleDivergence
from .geometry import DipoleGeometry
from .specfun import AuxIntegralResult

log = logging.getLogger(__name__)

_PANEL_BLOCK = 128      # panels per phase-matrix block (memory cap)
_N_AZIMUTHAL = 16       # phi nodes; exact for the quadratic dyadic (>= 6)
_N_POLAR = 64           # polar nodes of a base pass (f2: at least this)
_HALF_WINDOW = 1.0      # PV window [1 - 1, 1 + 1] around the pole at k/k0 = 1
_TAIL_START = 1.0 + _HALF_WINDOW
_TAIL_SEGMENTS = 48     # fewest half-period tail segments of a base pass
_K_MAX = 50.0           # the tail reaches at least this k/k0
# Gauss-Legendre rules of the pole panels and of the tail segments, built
# once; the polar rules depend on x and are built per pass
_POLE_X, _POLE_W = roots_legendre(16)
_TAIL_X, _TAIL_W = roots_legendre(10)


@dataclass(frozen=True)
class ModeDyadicSample:
    """One mode direction with its transverse frame and helicity dyadic."""

    k_hat: np.ndarray
    e1_hat: np.ndarray
    e2_hat: np.ndarray
    m_dyadic: np.ndarray


def mode_dyadic_sample(k_hat, helicity: float,
                       frame_angle: float = 0.0) -> ModeDyadicSample:
    """Build M(k_hat, s) from an explicit transverse frame.

    frame_angle rotates (e1, e2) about k_hat; M itself is frame covariant,
    so the dyadic must not depend on the angle (tested property).
    """
    k = np.asarray(k_hat, dtype=float)
    k = k / np.linalg.norm(k)
    e1, e2 = _transverse_frame(k[None, :])
    e1, e2 = e1[0], e2[0]
    if frame_angle != 0.0:
        ca, sa = math.cos(frame_angle), math.sin(frame_angle)
        e1, e2 = ca * e1 + sa * e2, -sa * e1 + ca * e2
    m = (np.outer(e1, e1) + np.outer(e2, e2)
         + helicity * 1j * (np.outer(e1, e2) - np.outer(e2, e1)))
    return ModeDyadicSample(k, e1, e2, m)


def _transverse_frame(khat: np.ndarray):
    """Right-handed transverse frame (e1 x e2 = k_hat) for each row of khat."""
    ref = np.where(np.abs(khat[:, 2:3]) < 0.9,
                   np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    e1 = np.cross(ref, khat)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(khat, e1)
    return e1, e2


def _projected_dyadic(khat, helicity, d1h, d2h):
    """d2 . M(k_hat, s) . d1 for every row of khat (vectorized), from the
    frame-free form d2.d1 - (k.d2)(k.d1) + s i k.(d2 x d1), which follows
    from e1 e1 + e2 e2 = 1 - k k and e1 e2 - e2 e1 = -[k]x."""
    return (d2h @ d1h - (khat @ d2h) * (khat @ d1h)
            + helicity * 1j * (khat @ np.cross(d2h, d1h)))


# ---------------------------------------------------------------------------
# angular reduction and phase kernel shared by both oracles

def _reduced_angular(m, g, n_polar):
    """Gauss-Legendre nodes in mu and, per helicity, the phi-averaged
    projected dyadic times the mu weights (polar axis along r_hat).

    The directions k_hat = sqrt(1 - mu^2) (cos phi e_a + sin phi e_b)
    + mu r_hat are built in the basis (e_a, e_b, r_hat), so the
    propagation phase depends on mu only, and the phi average of the
    (quadratic in k_hat) projected dyadic is exact on the
    _N_AZIMUTHAL-point grid.
    """
    mu, wmu = roots_legendre(n_polar)
    e_a, e_b = _transverse_frame(g.r_hat[None, :])
    phi = 2.0 * np.pi * np.arange(_N_AZIMUTHAL) / _N_AZIMUTHAL
    ring = np.cos(phi)[:, None] * e_a + np.sin(phi)[:, None] * e_b
    khat = (np.sqrt(1.0 - mu**2)[:, None, None] * ring
            + mu[:, None, None] * g.r_hat).reshape(-1, 3)
    weighted = {}
    for s, _ in m.channels:
        proj = _projected_dyadic(khat, s, g.d1_hat, g.d2_hat)
        weighted[s] = wmu * proj.reshape(n_polar, _N_AZIMUTHAL).mean(axis=1)
    return mu, weighted


def _panel_average(y, mids, half, nodes, mu, weighted):
    """Re of the (dOmega/4pi) angular average sum_j weighted[j]
    exp(i y kt mu[j]) / 2 at every radial factor kt = mids[p] + half *
    nodes[l] of a grid of equal-width panels; returns the (P x L) values.

    exp(i y kt mu) = exp(i y mids[p] mu) exp(i y half nodes[l] mu), so the
    mu sum over a block of panels is one (P x J) @ (J x L) product with one
    phase per panel and polar node.  The rule mu is a Gauss-Legendre rule,
    symmetric about 0, so only the real part is kept: the weight at -mu is
    conjugated onto +mu and J is half the node count.
    """
    lo = mu.size // 2
    w = weighted[lo:] + weighted[:mu.size - lo][::-1].conj()
    if mu.size % 2:         # the node at mu = 0 was counted twice
        w[0] = weighted[lo].real
    mu = mu[lo:]
    inner = w[:, None] * np.exp(1j * y * half * np.multiply.outer(mu, nodes))
    inner_re, inner_im = inner.real.copy(), inner.imag.copy()
    out = np.empty((mids.size, nodes.size))
    for i in range(0, mids.size, _PANEL_BLOCK):
        arg = y * np.multiply.outer(mids[i:i + _PANEL_BLOCK], mu)
        out[i:i + _PANEL_BLOCK] = 0.5 * (np.cos(arg) @ inner_re
                                         - np.sin(arg) @ inner_im)
    return out


# ---------------------------------------------------------------------------
# on-shell oracle

def _f1_single(x, m, g, n_polar):
    mu, weighted = _reduced_angular(m, g, n_polar)
    # one panel of zero half-width at kt = 1
    return sum((3.0 * n / 8.0)
               * float(_panel_average(n * x, np.ones(1), 0.0, np.zeros(1),
                                      mu, weighted[s])[0, 0])
               for s, n in m.channels)


def f1_oracle(x: float, m: MediumChirality, g: DipoleGeometry, *,
              refine_tol: float = 1e-9) -> float:
    """On-shell coefficient by angular quadrature of the mode sum at |k| = n k0.

    The explicit separation argument is used (g.x is not consulted, so one
    geometry object can serve a whole sweep).  The value of the 64-node
    polar rule is checked against a 128-node rule and OracleDivergence is
    raised if the two differ by more than refine_tol; the 64-node value is
    returned.  Deterministic (fixed shapes and summation order).
    """
    coarse = _f1_single(x, m, g, _N_POLAR)
    fine = _f1_single(x, m, g, 2 * _N_POLAR)
    if abs(fine - coarse) > refine_tol:
        raise OracleDivergence(
            f"f1 quadrature drift {abs(fine - coarse):.3e} > {refine_tol:.1e} "
            f"at x={x} with {_N_POLAR} polar nodes")
    return coarse


# ---------------------------------------------------------------------------
# off-shell (principal value) oracle

def _panels(a: float, b: float, n_panels: int):
    """Midpoints and the common half-width of n equal panels on [a, b]."""
    half = 0.5 * (b - a) / n_panels
    return a + half * (2.0 * np.arange(n_panels) + 1.0), half


def _f2_single(x, m, g, refine=1):
    """One pass of the f2 quadrature; refine = 2 doubles the pole panel and
    tail segment counts of the base pass (refine = 1), and the polar rule,
    at least refine * _N_POLAR nodes, follows the longer grid."""
    counts, z_max = _f2_extents(x, m, refine)
    n_polar = max(refine * _N_POLAR, int(0.55 * z_max) + 40)
    mu, weighted = _reduced_angular(m, g, n_polar)
    total = 0.0
    for (s, n), (n_pan, n_seg) in zip(m.channels, counts):
        y = n * x
        weight = 3.0 * n / 8.0

        def h(mids, half, nodes):
            kt = mids[:, None] + half * nodes
            return weight * kt**3 * _panel_average(y, mids, half, nodes, mu,
                                                   weighted[s])

        fold_mid, fold_half = _panels(0.0, _HALF_WINDOW, n_pan)
        u = fold_mid[:, None] + fold_half * _POLE_X
        fold = h(1.0 + fold_mid, fold_half, _POLE_X) \
            - h(1.0 - fold_mid, -fold_half, _POLE_X)
        pv = float((fold_half * _POLE_W * fold / u).sum())
        near_mid, near_half = _panels(0.0, _TAIL_START, n_pan)
        k = near_mid[:, None] + near_half * _POLE_X
        nonres = float((near_half * _POLE_W * h(near_mid, near_half, _POLE_X)
                        / (k + 1.0)).sum())
        seg_len = math.pi / y
        tail_mid, tail_half = _panels(_TAIL_START,
                                      _TAIL_START + n_seg * seg_len, n_seg)
        k = tail_mid[:, None] + tail_half * _TAIL_X
        seg_vals = (tail_half * _TAIL_W * h(tail_mid, tail_half, _TAIL_X)
                    * (1.0 / (k - 1.0) + 1.0 / (k + 1.0)))
        partial = np.cumsum(seg_vals.sum(axis=1))
        while partial.size > 1:
            partial = 0.5 * (partial[:-1] + partial[1:])
        total += (pv + nonres + float(partial[0])) / math.pi
    return total


def _f2_extents(x, m, refine):
    """Per-channel (pole panel, tail segment) counts and the largest radial
    phase argument; the counts are multiplied by refine after their floors."""
    counts, z_max = [], 0.0
    for _, n in m.channels:
        y = n * x
        seg_len = math.pi / y
        n_pan = refine * max(8, math.ceil(_TAIL_START * y / math.pi))
        n_seg = refine * max(_TAIL_SEGMENTS,
                             math.ceil((_K_MAX - _TAIL_START) / seg_len))
        counts.append((n_pan, n_seg))
        z_max = max(z_max, y * (_TAIL_START + n_seg * seg_len))
    return counts, z_max


def f2_oracle(x: float, m: MediumChirality, g: DipoleGeometry, *,
              refine_tol: float = 1e-4) -> float:
    """Off-shell coefficient by angular reduction + radial PV quadrature.

    The pole window is integrated by symmetric-grid subtraction, the
    non-resonant branch directly, and the oscillatory tail by half-period
    segmentation with iterated averaging (see module docstring).  The value
    is re-computed on a refined grid: twice the pole panels and tail
    segments of the base grid, and the polar rule of the refined extent
    (at least 128 nodes).  OracleDivergence is raised if the two runs
    differ by more than refine_tol * max(|value|, 0.01).  Returns the
    base-grid value; the convergence estimate is logged.
    """
    coarse = _f2_single(x, m, g)
    fine = _f2_single(x, m, g, refine=2)
    drift = abs(fine - coarse)
    scale = max(abs(fine), 0.01)
    log.debug("f2_oracle x=%g: value=%.12g, refinement drift=%.3e", x, coarse,
              drift)
    if drift > refine_tol * scale:
        raise OracleDivergence(
            f"f2 radial/angular refinement drift {drift:.3e} exceeds "
            f"{refine_tol:.1e} * {scale:.3g} at x={x}")
    return coarse


# ---------------------------------------------------------------------------
# auxiliary-integral oracle

def aux_i1_quadrature(u: float) -> AuxIntegralResult:
    """I1(u) by adaptive quadrature of the defining integral (test oracle)."""
    return _aux_quadrature(u, 3)


def aux_i2_quadrature(u: float) -> AuxIntegralResult:
    """I2(u) by adaptive quadrature of the defining integral (test oracle)."""
    return _aux_quadrature(u, 2)


def _aux_quadrature(u: float, power: int) -> AuxIntegralResult:
    if not (np.isfinite(u) and u > 0.0):
        raise DomainError(f"integral diverges for u <= 0, got {u}")
    xi_max = max(50.0 / u, 50.0)

    def f(xi):
        return xi**power * np.exp(-xi * u) / (xi**2 + 1.0)

    # split at the algebraic knee (xi = 1) and the exponential scale (1/u)
    pts = sorted({1.0, min(1.0 / u, 0.5 * xi_max)})
    value, abserr = integrate.quad(f, 0.0, xi_max, epsabs=1e-13,
                                   epsrel=1e-12, limit=800, points=pts)
    return AuxIntegralResult(float(value), float(abserr))
