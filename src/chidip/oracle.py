"""Brute-force mode-sum verification of the closed-form collective coefficients.

This module recomputes F1 and F2 directly from the photon-mode level: every
mode contributes its transverse dyadic

    M(k_hat, s) = e1 e1 + e2 e2 + s*i (e1 e2 - e2 e1),

projected between the two dipole orientations and weighted by the
propagation phase exp(i n_lambda x k_hat.r_hat).  Both oracles share one
angular reduction: with the polar axis along r_hat the phase depends on
mu = k_hat.r_hat only, so the projected dyadic is averaged over phi (exact
on a small uniform grid, since it is quadratic in k_hat) and the mu
integral is done by Gauss-Legendre.  The on-shell part (f1) evaluates that
average at |k| = n_lambda k0; the off-shell part (f2) additionally performs
the radial principal-value integral over the mode frequency, including the
non-resonant branch.

Normalization is fixed analytically by the calibration limit: an inactive
medium with parallel dipoles must give n_bar/2 as x -> 0, which pins the
per-polarization weight to (3 n_lambda / 8) on a (dOmega/4pi)-normalized
angular average.  With the right-handed transverse frame used here
(e1 x e2 = k_hat) and the axis pointing from dipole 2 to dipole 1, the
propagation phase must carry +i for the helicity term to land on the same
sign as the closed form.

The radial integral for f2 is genuinely improper: its integrand grows ~k
with undamped oscillation and is only Abel summable.  A fixed truncation
can therefore never converge; instead the pole window is integrated by
symmetric-grid subtraction (exact PV fold), and beyond the window the tail
is accumulated in half-period segments that are then contracted by iterated
pairwise averaging (Euler/Cesaro acceleration of an alternating series).
The segment grid always reaches at least ``k_max`` (default 50) before
acceleration.

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

from .collective import MediumChirality
from .errors import DomainError, OracleDivergence
from .geometry import DipoleGeometry
from .specfun import AuxIntegralResult

log = logging.getLogger(__name__)

_CHUNK = 512            # radial nodes per phase-matrix block (memory cap)
_N_AZIMUTHAL = 16       # phi nodes; exact for the quadratic dyadic (>= 6)


@dataclass(frozen=True)
class SphericalQuadratureSpec:
    """Gauss-Legendre rule in mu = k_hat.r_hat (polar axis along r_hat)."""

    n_polar: int = 64

    def __post_init__(self):
        if self.n_polar < 8 or self.n_polar % 2:
            raise DomainError(f"n_polar must be even and >= 8, got {self.n_polar}")

    def doubled(self) -> "SphericalQuadratureSpec":
        return SphericalQuadratureSpec(2 * self.n_polar)


@dataclass(frozen=True)
class RadialPVGrid:
    """Radial grid for the off-shell (principal-value) integral.

    window: full width of the symmetric PV window centred on the pole at
        k/k0 = 1 (the window [1 - window/2, 1 + window/2] must stay >= 0).
    pole_gl: Gauss-Legendre points per panel inside the window.
    tail_segments: minimum number of half-period segments past the window;
        raised automatically until the grid reaches k_max.
    tail_gl: Gauss-Legendre points per tail segment.
    k_max: the tail grid extends at least to this multiple of k0.
    """

    window: float = 2.0
    pole_gl: int = 16
    tail_segments: int = 48
    tail_gl: int = 10
    k_max: float = 50.0

    def __post_init__(self):
        if not 0.0 < self.window <= 2.0:
            raise DomainError(f"window must be in (0, 2], got {self.window}")
        if self.pole_gl < 4 or self.tail_gl < 4:
            raise DomainError("pole_gl and tail_gl must be >= 4")
        if self.tail_segments < 8:
            raise DomainError("tail_segments must be >= 8")
        if self.k_max <= 1.0 + 0.5 * self.window:
            raise DomainError("k_max must lie beyond the PV window")


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
    """d2 . M(k_hat, s) . d1 for every row of khat (vectorized)."""
    e1, e2 = _transverse_frame(khat)
    a1, a2 = e1 @ d1h, e2 @ d1h
    b1, b2 = e1 @ d2h, e2 @ d2h
    return b1 * a1 + b2 * a2 + helicity * 1j * (b1 * a2 - b2 * a1)


# ---------------------------------------------------------------------------
# angular reduction shared by both oracles

def _reduced_angular(m, g, n_polar):
    """phi-averaged projected dyadic on a mu-grid with polar axis r_hat.

    With the polar axis aligned to the interdipole axis the propagation
    phase depends on mu only, and the phi average of the (quadratic in
    k_hat) projected dyadic is exact on the _N_AZIMUTHAL-point grid.
    """
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    z = np.array([0.0, 0.0, 1.0])
    c = float(g.r_hat @ z)
    if c > 1.0 - 1e-12:
        rot = np.eye(3)
    elif c < -1.0 + 1e-12:
        rot = np.diag([1.0, -1.0, -1.0])
    else:
        v = np.cross(z, g.r_hat)
        vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        rot = np.eye(3) + vx + vx @ vx / (1.0 + c)
    phi = 2.0 * np.pi * np.arange(_N_AZIMUTHAL) / _N_AZIMUTHAL
    st = np.sqrt(1.0 - mu**2)
    khat = np.stack([
        np.multiply.outer(st, np.cos(phi)),
        np.multiply.outer(st, np.sin(phi)),
        np.multiply.outer(mu, np.ones_like(phi)),
    ], axis=-1).reshape(-1, 3) @ rot.T
    reduced = {}
    for s, _ in m.channels:
        proj = _projected_dyadic(khat, s, g.d1_hat, g.d2_hat)
        reduced[s] = proj.reshape(n_polar, _N_AZIMUTHAL).mean(axis=1)
    return mu, wmu, reduced


def _spectral_average(kt, y, mu, wmu, reduced):
    """Re of the (dOmega/4pi) angular average at radial factor kt (chunked)."""
    weighted = wmu * reduced
    out = np.empty(kt.size)
    for i in range(0, kt.size, _CHUNK):
        blk = kt[i:i + _CHUNK]
        phase = np.exp(1j * y * np.multiply.outer(blk, mu))
        out[i:i + _CHUNK] = 0.5 * (phase * weighted).sum(axis=1).real
    return out


# ---------------------------------------------------------------------------
# on-shell oracle

def _f1_single(x, m, g, q):
    mu, wmu, reduced = _reduced_angular(m, g, q.n_polar)
    kt = np.ones(1)
    return sum((3.0 * n / 8.0)
               * float(_spectral_average(kt, n * x, mu, wmu, reduced[s])[0])
               for s, n in m.channels)


def f1_oracle(x: float, m: MediumChirality, g: DipoleGeometry,
              q: SphericalQuadratureSpec | None = None,
              refine_tol: float = 1e-9) -> float:
    """On-shell coefficient by angular quadrature of the mode sum at |k| = n k0.

    The explicit separation argument is used (g.x is not consulted, so one
    geometry object can serve a whole sweep).  The value is checked against
    a node-doubled rule and OracleDivergence is raised if the two differ by
    more than refine_tol; the base-rule value is returned.  Deterministic
    for a fixed spec (fixed shapes, pairwise summation).
    """
    if q is None:
        q = SphericalQuadratureSpec()
    coarse = _f1_single(x, m, g, q)
    fine = _f1_single(x, m, g, q.doubled())
    if abs(fine - coarse) > refine_tol:
        raise OracleDivergence(
            f"f1 quadrature drift {abs(fine - coarse):.3e} > {refine_tol:.1e} "
            f"at x={x} with {q}")
    return coarse


# ---------------------------------------------------------------------------
# off-shell (principal value) oracle

def _gl_panels(a: float, b: float, n_panels: int, n_gl: int):
    xg, wg = np.polynomial.legendre.leggauss(n_gl)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _f2_single(x, m, g, q, grid):
    half_w, tail_start, n_seg_list, z_max = _f2_extents(x, m, grid)
    n_polar = max(q.n_polar, int(0.55 * z_max) + 40)
    mu, wmu, reduced = _reduced_angular(m, g, n_polar)
    total = 0.0
    for (s, n), n_seg in zip(m.channels, n_seg_list):
        y = n * x
        n_pan = max(8, math.ceil(tail_start * y / math.pi))
        fold_u, fold_w = _gl_panels(0.0, half_w, n_pan, grid.pole_gl)
        near_k, near_w = _gl_panels(0.0, tail_start, n_pan, grid.pole_gl)
        seg_len = math.pi / y
        tail_k, tail_w = _gl_panels(tail_start, tail_start + n_seg * seg_len,
                                    n_seg, grid.tail_gl)
        kt = np.concatenate([1.0 + fold_u, 1.0 - fold_u, near_k, tail_k])
        h = (3.0 * n / 8.0) * kt**3 * _spectral_average(kt, y, mu, wmu,
                                                        reduced[s])
        nf = fold_u.size
        h_up, h_dn = h[:nf], h[nf:2 * nf]
        h_near = h[2 * nf:2 * nf + near_k.size]
        h_tail = h[2 * nf + near_k.size:]
        pv = float((fold_w * (h_up - h_dn) / fold_u).sum())
        nonres = float((near_w * h_near / (near_k + 1.0)).sum())
        seg_vals = (tail_w * h_tail * (1.0 / (tail_k - 1.0)
                                       + 1.0 / (tail_k + 1.0)))
        partial = np.cumsum(seg_vals.reshape(n_seg, grid.tail_gl).sum(axis=1))
        while partial.size > 1:
            partial = 0.5 * (partial[:-1] + partial[1:])
        total += (pv + nonres + float(partial[0])) / math.pi
    return total


def _f2_extents(x, m, grid):
    """Per-channel segment counts and the largest radial phase argument."""
    half_w = 0.5 * grid.window
    tail_start = 1.0 + half_w
    n_segs, z_max = [], 0.0
    for _, n in m.channels:
        y = n * x
        seg_len = math.pi / y
        n_seg = max(grid.tail_segments,
                    math.ceil((grid.k_max - tail_start) / seg_len))
        n_segs.append(n_seg)
        z_max = max(z_max, y * (tail_start + n_seg * seg_len))
    return half_w, tail_start, n_segs, z_max


def f2_oracle(x: float, m: MediumChirality, g: DipoleGeometry,
              q: SphericalQuadratureSpec | None = None,
              radial: RadialPVGrid | None = None,
              refine_tol: float = 1e-4) -> float:
    """Off-shell coefficient by angular reduction + radial PV quadrature.

    The pole window is integrated by symmetric-grid subtraction, the
    non-resonant branch directly, and the oscillatory tail by half-period
    segmentation with iterated averaging (see module docstring).  The value
    is re-computed with doubled panel/segment/polar counts; OracleDivergence
    is raised if the two runs differ by more than
    refine_tol * max(|value|, 0.01).  Returns the base-grid value; the
    convergence estimate is logged.
    """
    if q is None:
        q = SphericalQuadratureSpec()
    if radial is None:
        radial = RadialPVGrid()
    coarse = _f2_single(x, m, g, q, radial)
    fine_grid = RadialPVGrid(radial.window, radial.pole_gl,
                             2 * radial.tail_segments, radial.tail_gl,
                             radial.k_max)
    fine = _f2_single(x, m, g, q.doubled(), fine_grid)
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
