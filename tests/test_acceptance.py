"""Acceptance gate: one test per criterion, one PASS line per criterion.

Criteria and pinned tolerances:

  A1  flat-line sweep (orthogonal dipoles, inactive n=3): population rates
      = 3 within 1e-12, splitting = 0 within 1e-14, < 1 s
  A2  same geometry, active medium: max |delta| > 0.01 and E_int(t=1)
      nonzero somewhere, < 1 s
  A3  first local minima of delta(x), parallel dipoles, grid step <= 0.02:
      inactive n=3 in [2.5, 3.5]; active default mapping in [1.5, 2.5]
  A4  sum rule gamma+ + gamma- = n_bar within 1e-14 over 1000 random
      samples; parallel-dipole f1(1e-3) within 1e-6 of n_bar/2 (series)
  A5  chirality-mapping selection: documented open finding (both mappings
      satisfy the A3 window) with the relaxed bound: each active minimum
      strictly below the inactive one; half-difference stays the default
  A6  |f1 - f1_oracle| <= 5e-15 over x in {0.05/4.5,0.02,0.05,0.1,0.2,0.3,
      0.5,1,2,3,5,10,20,50,111} (n x from 0.05 to 499.5) x 8 geometries
      x 3 media, < 60 s
  A7  |f2 - f2_oracle| / max(|f2|, 0.01) <= 1e-10 at x in
      {0.03,0.1,1,2,4,20} for vacuum-parallel and active-orthogonal, and at
      n x = 500 for the active pair, < 300 s
  A8  aux_i1/aux_i2 vs 30-digit mpmath tanh-sinh quadrature of the
      defining integrals within 1e-13 relative on a 50-point log grid
      u in [1e-3, 1e3]
  A9  dynamics identities: basis consistency 1e-12, E_int(0) = 0 exactly,
      E_int = 0 whenever the shift part vanishes, fitted decay rates of
      the exchange populations within 1e-10 of 2(Re a_l +- Re a_t)
  A10 byte-identical stdout for repeated runs of every CLI command
"""

import subprocess
import sys
import time

import mpmath
import numpy as np

from chidip import (
    MediumChirality,
    aux_i1,
    aux_i2,
    evolve,
    f1,
    f2,
    geometry_factors,
    normalize_geometry,
)
from chidip.cli import parse_config, run_sweep
from chidip.oracle import f1_oracle, f2_oracle

VACUUM = MediumChirality(1.0, 1.0)
INACTIVE3 = MediumChirality(3.0, 3.0)
ACTIVE_DEFAULT = MediumChirality.from_mean_and_rotation(3.0, -1.5)
# the other reading of the rotation, n_left - n_right = -1.5
ACTIVE_ALT = MediumChirality.from_mean_and_rotation(3.0, -1.5 / 2)

SYNTROPIC = normalize_geometry((1, 0, 0), (1, 0, 0), (0, 0, 1), 1.0)
ORTH = normalize_geometry((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
ISO = normalize_geometry((1, 1, 1), (1, 1, 1), (0, 0, 1), 1.0)


def _sweep(scenario, medium):
    return run_sweep(parse_config([
        "--scenario", scenario,
        "--n-left", repr(medium.n_left), "--n-right", repr(medium.n_right),
        "--x", "0.5:10:200"]))


def _first_local_min(xs, ys):
    for i in range(1, len(ys) - 1):
        if ys[i] < ys[i - 1] and ys[i] < ys[i + 1]:
            return xs[i]
    raise AssertionError("no interior local minimum found")


def _delta_minimum(medium):
    xs = np.linspace(0.5, 10.0, 951)        # step 0.01 <= required 0.02
    g = geometry_factors(SYNTROPIC)
    ys = [2.0 * f2(float(x), medium, g) for x in xs]
    return _first_local_min(xs, ys)


def test_a1_flat_line_for_inactive_orthogonal():
    t0 = time.perf_counter()
    cols = _sweep("orthogonal-perpendicular", INACTIVE3)
    elapsed = time.perf_counter() - t0
    rate_dev = float(max(np.max(np.abs(cols["gamma_s"] - 3.0)),
                         np.max(np.abs(cols["gamma_as"] - 3.0))))
    delta_dev = float(np.max(np.abs(cols["delta"])))
    assert len(cols["x"]) == 200
    assert rate_dev <= 1e-12
    assert delta_dev <= 1e-14
    assert elapsed < 1.0
    print(f"\nA1 PASS - rates 3 +- {rate_dev:.1e} (tol 1e-12), "
          f"|delta| <= {delta_dev:.1e} (tol 1e-14), {elapsed:.2f}s (< 1s)")


def test_a2_chiral_activation_of_orthogonal_geometry():
    t0 = time.perf_counter()
    cols = _sweep("orthogonal-perpendicular", ACTIVE_DEFAULT)
    elapsed = time.perf_counter() - t0
    max_delta = float(np.max(np.abs(cols["delta"])))
    max_e = float(np.max(np.abs(cols["e_int"])))
    assert max_delta > 0.01
    assert max_e > 0.0
    assert elapsed < 1.0
    print(f"A2 PASS - max|delta| = {max_delta:.3f} (> 0.01), "
          f"max|E_int(t=1)| = {max_e:.2e} (> 0), {elapsed:.2f}s (< 1s)")


def test_a3_minimum_locations_for_parallel_dipoles():
    x_inactive = _delta_minimum(INACTIVE3)
    x_active = _delta_minimum(ACTIVE_DEFAULT)
    assert 2.5 <= x_inactive <= 3.5
    assert 1.5 <= x_active <= 2.5
    print(f"A3 PASS - first minimum: inactive at x = {x_inactive:.2f} "
          f"(in [2.5, 3.5]), active at x = {x_active:.2f} (in [1.5, 2.5]), "
          f"grid step 0.01")


def test_a4_sum_rule_and_dicke_limit():
    rng = np.random.default_rng(2024)
    worst = 0.0
    g_syn = geometry_factors(SYNTROPIC)
    for _ in range(1000):
        d1, d2, ax = rng.normal(size=(3, 3))
        g = geometry_factors(normalize_geometry(d1, d2, ax, 1.0))
        nl, nr = rng.uniform(0.2, 5.0, size=2)
        m = MediumChirality(float(nl), float(nr))
        x = float(10 ** rng.uniform(-2.5, 1.0))
        v = f1(x, m, g)
        worst = max(worst, abs((0.5 * m.n_bar + v) + (0.5 * m.n_bar - v)
                               - m.n_bar))
    assert worst <= 1e-14
    # Dicke limit through the series path (y = n*x = 1e-3 << switchover).
    # The 1e-6 window is only attainable where the physical quadratic term
    # 2 y^2/15 is below it, i.e. in vacuum; for n = 3 that term itself is
    # 2.7e-6, which the second assertion pins down.
    dicke_dev = abs(f1(1e-3, VACUUM, g_syn) - 0.5)
    assert dicke_dev <= 1e-6
    dense_dev = 1.5 - f1(1e-3, INACTIVE3, g_syn)
    physical = 2 * (9 / 8) * (2 * (3e-3) ** 2 / 15)
    assert abs(dense_dev - physical) < 1e-3 * physical
    print(f"A4 PASS - sum-rule deviation <= {worst:.1e} (tol 1e-14, 1000 "
          f"samples); vacuum Dicke deviation {dicke_dev:.1e} (tol 1e-6)")


def test_a5_chirality_mapping_selection():
    x_inactive = _delta_minimum(INACTIVE3)
    x_half = _delta_minimum(ACTIVE_DEFAULT)
    x_full = _delta_minimum(ACTIVE_ALT)
    # documented open finding (see README): BOTH readings of the rotation
    # parameter satisfy the [1.5, 2.5] window, so "exactly one mapping"
    # fails and the prescribed fallback applies: assert the relaxed bound
    # (active minima strictly below the inactive one) and keep the
    # documented default (half-difference, whose minimum sits nearest 2).
    both_in_window = (1.5 <= x_half <= 2.5) and (1.5 <= x_full <= 2.5)
    assert both_in_window, "finding invalidated: re-check mapping selection"
    assert x_half < x_inactive
    assert x_full < x_inactive
    assert (ACTIVE_DEFAULT.n_left, ACTIVE_DEFAULT.n_right) == (1.5, 4.5)
    print(f"A5 PASS (open finding) - both mappings land in [1.5, 2.5] "
          f"(half-difference: {x_half:.2f}, full-difference: {x_full:.2f}); "
          f"relaxed bound holds (both < inactive {x_inactive:.2f}); "
          f"default = half-difference")


def test_a6_on_shell_oracle_equivalence():
    rng = np.random.default_rng(99)
    geometries = [SYNTROPIC, ORTH, ISO]
    for _ in range(5):
        geometries.append(normalize_geometry(
            rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), 1.0))
    t0 = time.perf_counter()
    worst = 0.0
    # 0.05/4.5 puts the largest index, 4.5, at n x = 0.05; 111 puts it at
    # n x = 499.5 below the ceiling 500
    for x in (0.05 / 4.5, 0.02, 0.05, 0.1, 0.2, 0.3,
              0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 111.0):
        for geo in geometries:
            inv = geometry_factors(geo)
            for m in (VACUUM, INACTIVE3, ACTIVE_DEFAULT):
                dev = abs(f1(x, m, inv) - f1_oracle(x, m, geo))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst <= 5e-15
    assert elapsed < 60.0
    print(f"A6 PASS - worst |f1 - oracle| = {worst:.1e} (tol 5e-15) over "
          f"360 cases, {elapsed:.1f}s (< 60s)")


def test_a7_off_shell_oracle_equivalence():
    # measured worst 3.9e-13, at x = 1 (vacuum-parallel); the last case puts
    # the active medium's larger index, 4.5, at the ceiling n x = 500
    cases = [(x, m, geo) for x in (0.03, 0.1, 1.0, 2.0, 4.0, 20.0)
             for m, geo in ((VACUUM, SYNTROPIC), (ACTIVE_DEFAULT, ORTH))]
    cases.append((500.0 / ACTIVE_DEFAULT.n_right, ACTIVE_DEFAULT, ORTH))
    t0 = time.perf_counter()
    worst = 0.0
    for x, m, geo in cases:
        closed = f2(x, m, geometry_factors(geo))
        rel = abs(closed - f2_oracle(x, m, geo)) / max(abs(closed), 0.01)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 300.0
    print(f"A7 PASS - worst relative |f2 - oracle| = {worst:.1e} "
          f"(tol 1e-10) over {len(cases)} cases, {elapsed:.1f}s (< 300s)")


def _aux_reference(u: float, power: int):
    """int_0^inf xi^power exp(-xi u) / (xi^2 + 1) dxi by tanh-sinh quadrature
    at 30 digits, split at the algebraic knee (xi = 1) and the exponential
    scale (1/u); independent of the Si/Ci identity of the closed forms."""
    with mpmath.workdps(30):
        v = mpmath.mpf(u)
        cuts = sorted({mpmath.mpf(0), mpmath.mpf(1), 1 / v}) + [mpmath.inf]
        return mpmath.quad(
            lambda xi: xi**power * mpmath.exp(-xi * v) / (xi * xi + 1),
            cuts, method="tanh-sinh")


def test_a8_special_function_cross_validation():
    # measured worst: 4.5e-15 relative, at u = 2.68 (I1)
    worst = 0.0
    for u in np.logspace(-3, 3, 50):
        for aux, power in ((aux_i1, 3), (aux_i2, 2)):
            ref = _aux_reference(float(u), power)
            worst = max(worst, float(abs(aux(float(u)).value - ref) / ref))
    assert worst <= 1e-13
    print(f"A8 PASS - aux_i1/aux_i2 vs 30-digit mpmath quadrature: worst "
          f"relative deviation {worst:.1e} (tol 1e-13, 50-point log grid)")


def test_a9_dynamics_identities():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 2.0, 800)
    worst_basis = 0.0
    for _ in range(10):
        re_al = -float(rng.uniform(0.4, 2.0))
        a_l = complex(re_al, float(rng.uniform(-2, 2)))
        a_t = complex(float(rng.uniform(-1, 1)) * abs(re_al),
                      float(rng.uniform(-2, 2)))
        traj = evolve(a_l, a_t, t)
        worst_basis = max(
            worst_basis,
            float(np.max(np.abs((traj.c1 + traj.c2) / np.sqrt(2)
                                - traj.c_plus))),
            float(np.max(np.abs((traj.c1 - traj.c2) / np.sqrt(2)
                                - traj.c_minus))))
        assert traj.e_int[0] == 0.0
    assert worst_basis <= 1e-12
    # no shift part -> no interaction energy, exactly
    flat = evolve(complex(-1.2, 0.4), complex(-0.5, 0.0), t)
    assert np.all(flat.e_int == 0.0)
    # fitted exponential rates of the exchange populations
    a_l, a_t = complex(-1.1, 0.3), complex(-0.6, 1.1)
    traj = evolve(a_l, a_t, t)
    worst_rate = max(
        abs(np.polyfit(t, np.log(traj.p_plus), 1)[0]
            - 2 * (a_l.real + a_t.real)),
        abs(np.polyfit(t, np.log(traj.p_minus), 1)[0]
            - 2 * (a_l.real - a_t.real)))
    assert worst_rate <= 1e-10
    print(f"A9 PASS - basis consistency {worst_basis:.1e} (tol 1e-12), "
          f"E_int identities exact, fitted rates within {worst_rate:.1e} "
          f"(tol 1e-10)")


def test_a10_cli_byte_determinism():
    commands = [
        ["sweep", "--scenario", "syntropic-perpendicular", "--n-left",
         "1.5", "--n-right", "4.5", "--x", "0.5:10:100"],
        ["sweep", "--scenario", "isotropic", "--n-bar", "3", "--x",
         "0.5:5:50", "--format", "json", "--lamb-cutoff", "206048.4"],
        ["dynamics", "--scenario", "orthogonal-perpendicular", "--n-bar",
         "3", "--rotation", "-1.5", "--x", "2", "--time", "0:3:60"],
        ["lamb", "--n-bar", "1", "--lamb-cutoff", "206048.4"],
    ]
    for cmd in commands:
        runs = [subprocess.run([sys.executable, "-m", "chidip.cli"] + cmd,
                               capture_output=True) for _ in range(2)]
        for r in runs:
            assert r.returncode == 0, r.stderr.decode()
            assert r.stderr == b""
        assert runs[0].stdout == runs[1].stdout
        assert len(runs[0].stdout) > 0
    print(f"A10 PASS - {len(commands)} CLI commands byte-identical across "
          f"repeated runs")
