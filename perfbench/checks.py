"""Correctness checks, run on every request outside its timed interval.

References are independent of chidip: the paper's closed forms for f1/f2
evaluated with mpmath at 50 digits, and exact identities of the 2x2
dynamics evaluated with numpy on every printed row.  No tolerance is looser
than the one the repository's tests apply to the same quantity:

    f1, f2, e_int, delta_pm      rel 1e-12, abs 1e-14      tests/test_cli.py
    sum rule gamma_s + gamma_as  1e-14 * n_bar             tests/test_collective.py
    basis consistency            1e-12                     A9
    E_int(0)                     exactly 0                 A9
    oracle f1 / f2               1e-8 abs / 1e-3 rel       A6 / A7

Two error sources no evaluation in doubles can avoid are added on top:

* the relative tolerance applies to the condition scale of the formula,
  the summed magnitude of its terms, not only to the result.  Above the
  series switch the trigonometric brackets sum terms up to 1/y^3 (the
  repository's own switch-over test allows 1e-9 there); below it the
  series is well conditioned and the scale is the value itself;
* CSV prints 15 significant digits, so each printed value carries up to
  5e-15 of relative rounding (JSON prints doubles exactly).
"""

from __future__ import annotations

import io
import json
import math
import random

import mpmath
import numpy as np

from workloads import Y_SERIES, Request

mpmath.mp.dps = 50

REL = 1e-12
ABS = 1e-14
SUM_RULE = 1e-14
BASIS = 1e-12
A6_ABS = 1e-8
A7_REL = 1e-3
CSV_DIGITS = 5e-15       # relative rounding of a '.15g' value
MPMATH_ROWS = 8          # seeded rows per sweep request checked against mpmath

SWEEP_COLUMNS = ["x", "gamma_s", "gamma_as", "delta", "f1", "f2", "e_int"]
DYNAMICS_COLUMNS = ["t", "p1", "p2", "p_plus", "p_minus", "e_int"]


# ---------------------------------------------------------------------------
# mpmath reference for the paper's closed forms

def invariants(d1, d2, axis):
    """(a, b, c) of the normalized geometry, at mpmath precision."""
    units = []
    for v in (d1, d2, axis):
        v = [mpmath.mpf(c) for c in v]
        norm = mpmath.sqrt(sum(c * c for c in v))
        units.append([c / norm for c in v])
    u1, u2, r = units
    cross = [u2[1] * u1[2] - u2[2] * u1[1], u2[2] * u1[0] - u2[0] * u1[2],
             u2[0] * u1[1] - u2[1] * u1[0]]
    dot = mpmath.fdot
    return dot(u2, u1), dot(u2, r) * dot(r, u1), dot(cross, r)


def _bracket(terms, y):
    """A bracket's value and the scale of its rounding error in doubles."""
    value = sum(terms)
    scale = sum(abs(t) for t in terms) if y >= Y_SERIES else abs(value)
    return value, scale


def reference_f1_f2(x, n_left, n_right, abc):
    """(f1, f2, scale1, scale2) at x: the closed forms with y = n*x per
    helicity, and the condition scale of each."""
    a, b, c = abc
    f1 = f2 = scale1 = scale2 = mpmath.mpf(0)
    for s, n in ((1, mpmath.mpf(n_left)), (-1, mpmath.mpf(n_right))):
        y = n * mpmath.mpf(x)
        sy, cy = mpmath.sin(y), mpmath.cos(y)
        si, ci = mpmath.si(y), mpmath.ci(y)
        g = -ci * cy + (mpmath.pi / 2 - si) * sy
        f = ci * sy + (mpmath.pi / 2 - si) * cy
        aux = (2 / mpmath.pi) * ((1 / y**2 - g) / y + (1 / y - f) / y**2)
        aux_scale = (2 / mpmath.pi) * ((1 / y**2 + abs(g)) / y
                                       + (1 / y + abs(f)) / y**2)
        b1 = _bracket((sy / y, cy / y**2, -sy / y**3), y)
        b2 = _bracket((sy / y, 3 * cy / y**2, -3 * sy / y**3), y)
        b3 = _bracket((cy / y, -sy / y**2), y)
        d1 = _bracket((cy / y, -sy / y**2, -cy / y**3), y)
        d2 = _bracket((cy / y, -3 * sy / y**2, -3 * cy / y**3), y)
        d3 = _bracket((sy / y, cy / y**2), y)
        w = 3 * n / 8
        f1 += w * (a * b1[0] - b * b2[0] + s * c * b3[0])
        f2 += w * (a * d1[0] - b * d2[0] - s * c * (d3[0] + aux))
        scale1 += w * (abs(a) * b1[1] + abs(b) * b2[1] + abs(c) * b3[1])
        scale2 += w * (abs(a) * d1[1] + abs(b) * d2[1]
                       + abs(c) * (d3[1] + aux_scale))
    return float(f1), float(f2), float(scale1), float(scale2)


# ---------------------------------------------------------------------------
# parsing

def parse_table(text: str, fmt: str, columns):
    """The printed table as a float array, checking the header."""
    if fmt == "csv":
        header, _, body = text.partition("\n")
        if header.split(",") != columns:
            raise ValueError(f"header {header!r}")
        return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    rows = json.loads(text)
    if not rows or list(rows[0]) != columns:
        raise ValueError("json keys differ from the expected columns")
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("a json row has other keys than the first")
    return np.array([[row[c] for c in columns] for row in rows], dtype=float)


class _Findings(list):
    """Problems found in one table; ``expect`` compares whole columns."""

    def __init__(self, where, values):
        super().__init__()
        self.where, self.values = where, values

    def expect(self, name, got, want, tol):
        bad = np.abs(got - want) > tol
        if np.any(bad):
            i = int(np.argmax(bad))
            want = np.broadcast_to(want, bad.shape)
            self.append(f"{name} wrong at {self.where}={self.values[i]!r}: "
                        f"{float(got[i])!r} vs {float(want[i])!r}")


# ---------------------------------------------------------------------------
# per-workload content checks; each returns a list of problems

def check_sweep(req: Request, stdout: str):
    s = req.spec
    columns = SWEEP_COLUMNS + (["delta_plus", "delta_minus"]
                               if s["lamb_cutoff"] is not None else [])
    table = parse_table(stdout, s["fmt"], columns)
    if table.shape != (s["points"], len(columns)):
        return [f"table shape {table.shape}, expected "
                f"({s['points']}, {len(columns)})"]
    if not np.all(np.isfinite(table)):
        return ["non-finite value in output"]
    col = dict(zip(columns, table.T))
    q = CSV_DIGITS if s["fmt"] == "csv" else 0.0
    n_bar = 0.5 * (s["n_left"] + s["n_right"])
    gs, gas, f1, f2 = col["gamma_s"], col["gamma_as"], col["f1"], col["f2"]
    x = np.linspace(s["x_start"], s["x_stop"], s["points"])
    out = _Findings("x", x)

    out.expect("x grid", col["x"], x, (1e-14 + q) * x)
    out.expect("sum rule gamma_s + gamma_as", gs + gas, 2 * n_bar,
               SUM_RULE * 2 * n_bar + q * (np.abs(gs) + np.abs(gas)))
    out.expect("gamma_s - gamma_as = 4 f1", gs - gas, 4 * f1,
               SUM_RULE * 2 * n_bar
               + q * (np.abs(gs) + np.abs(gas) + 4 * np.abs(f1)))
    out.expect("delta = 2 f2", col["delta"], 2 * f2,
               (1e-14 + 2 * q) * np.abs(col["delta"]))
    # E_int(t) = -2 f2 (p_plus - p_minus) with p_pm = exp(-gamma_pm t)/2
    t = s["time"]
    e_plus, e_minus = np.exp(-gs * t), np.exp(-gas * t)
    out.expect("e_int", col["e_int"], -f2 * (e_plus - e_minus),
               (REL + q) * np.abs(f2) * (e_plus + e_minus) * (1 + gs * t)
               + 1e-300)
    if s["lamb_cutoff"] is not None:
        lamb = float(mpmath.mpf(n_bar) * mpmath.log(s["lamb_cutoff"])
                     / (2 * mpmath.pi))
        dp, dm = col["delta_plus"], col["delta_minus"]
        tol = (REL + q) * (abs(lamb) + np.abs(f2)) + ABS
        out.expect("delta_plus + delta_minus", dp + dm, 2 * lamb, 2 * tol)
        out.expect("delta_plus - delta_minus", dp - dm, 2 * f2, 2 * tol)

    abc = invariants(s["d1"], s["d2"], s["axis"])
    for i in _sample_rows(req, x, (s["n_left"], s["n_right"])):
        r1, r2, scale1, scale2 = reference_f1_f2(x[i], s["n_left"],
                                                 s["n_right"], abc)
        for name, got, want, scale in (("f1", f1[i], r1, scale1),
                                       ("f2", f2[i], r2, scale2)):
            tol = REL * max(abs(want), scale) + q * abs(got) + ABS
            if not abs(got - want) <= tol:
                out.append(f"{name} at x={x[i]!r}: {float(got)!r} vs "
                           f"mpmath {want!r} (tolerance {tol:.2e})")
    return list(out)


def _sample_rows(req, x, indices):
    """First, last, both sides of each channel's series switch, and seeded
    interior rows."""
    rows = {0, len(x) - 1}
    for n in indices:
        k = int(np.searchsorted(n * x, Y_SERIES))
        rows.update(i for i in (k - 1, k) if 0 <= i < len(x))
    rng = random.Random(f"rows:{req.argv}")
    while len(rows) < min(MPMATH_ROWS, len(x)):
        rows.add(rng.randrange(len(x)))
    return sorted(rows)


def check_dynamics(req: Request, stdout: str):
    s = req.spec
    table = parse_table(stdout, s["fmt"], DYNAMICS_COLUMNS)
    if table.shape != (s["samples"], len(DYNAMICS_COLUMNS)):
        return [f"table shape {table.shape}, expected ({s['samples']}, 6)"]
    if not np.all(np.isfinite(table)):
        return ["non-finite value in output"]
    t, p1, p2, pp, pm, e = table.T
    q = CSV_DIGITS if s["fmt"] == "csv" else 0.0
    n_bar = 0.5 * (s["n_left"] + s["n_right"])
    f1, f2, scale1, scale2 = reference_f1_f2(
        s["x"], s["n_left"], s["n_right"],
        invariants(s["d1"], s["d2"], s["axis"]))
    out = _Findings("t", t)

    grid = np.linspace(0.0, s["t_stop"], s["samples"])
    out.expect("time grid", t, grid, (1e-14 + q) * grid)
    if e[0] != 0.0:
        out.append(f"E_int(0) = {e[0]!r}, expected exactly 0")
    out.expect("p1 + p2 = p_plus + p_minus", p1 + p2, pp + pm,
               BASIS + q * (p1 + p2 + pp + pm))
    # the exchange populations decay at 2 gamma_pm = n_bar +- 2 f1
    for name, got, rate in (("p_plus", pp, 0.5 * n_bar + f1),
                            ("p_minus", pm, 0.5 * n_bar - f1)):
        want = 0.5 * np.exp(-2 * rate * t)
        out.expect(name, got, want,
                   (REL * (1 + 2 * max(abs(rate), scale1) * t) + q) * want
                   + 1e-300)
    # p1 - p2 = Re(e_plus conj(e_minus)) = exp(-n_bar t) cos(2 f2 t)
    decay = np.exp(-n_bar * t)
    f2_scale = 2 * max(abs(f2), scale2)
    out.expect("p1 - p2", p1 - p2, decay * np.cos(2 * f2 * t),
               REL * (pp + pm) * (1 + f2_scale * t + n_bar * t) + q * (p1 + p2)
               + 1e-300)
    out.expect("e_int = -2 f2 (p_plus - p_minus)", e, -2 * f2 * (pp - pm),
               (REL + 2 * q) * f2_scale * (pp + pm) + 1e-300)
    return list(out)


def check_verify(req: Request, values):
    f1, f1_oracle, f2, f2_oracle = values
    problems = []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite value {values!r}")
    if not abs(f1 - f1_oracle) <= A6_ABS:
        problems.append(f"|f1 - f1_oracle| = {abs(f1 - f1_oracle):.3e} > {A6_ABS}")
    rel = abs(f2 - f2_oracle) / max(abs(f2), 0.01)
    if not rel <= A7_REL:
        problems.append(f"relative |f2 - f2_oracle| = {rel:.3e} > {A7_REL}")
    return problems


CONTENT = {"sweep": check_sweep, "dynamics": check_dynamics}


def check(workload: str, req: Request, outcome) -> list[str]:
    """Every reason this request counts as failed; empty if it passed."""
    problems = []
    if outcome.error is not None:
        problems.append(f"raised {outcome.error}")
    if outcome.warnings:
        problems.append(f"{len(outcome.warnings)} warning(s): "
                        f"{outcome.warnings[0]}")
    if workload == "verify":
        if outcome.error is None:
            problems += check_verify(req, outcome.value)
        return problems
    if "Traceback" in outcome.stderr:
        problems.append("traceback on stderr")
    if outcome.error is not None:
        return problems
    if outcome.rc not in req.expect:
        problems.append(f"exit code {outcome.rc}, expected "
                        f"{' or '.join(map(str, req.expect))}")
    if outcome.rc != 0:
        if outcome.stdout:
            problems.append("stdout not empty on error")
        if "chidip" not in outcome.stderr:
            problems.append("no error message on stderr")
        return problems
    if req.malformed:          # exit 0 where an error was due
        body = outcome.stdout.lower()
        if "nan" in body or "inf" in body:
            problems.append("non-finite rows with exit 0")
        return problems
    try:
        problems += CONTENT[workload](req, outcome.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unparseable output: {exc}")
    return problems
