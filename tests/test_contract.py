"""Input contract of the library and the CLI, as hypothesis properties.

For any pair of positive indices (Python floats or numpy scalars, up to
the float maximum) MediumChirality builds a medium or raises a ChidipError,
and it raises a ChidipError for an index that is not a real number.
For any such medium and any x, a float or a 1-d array, each public closed
form returns finite values or raises a ChidipError, and emits no warning.
A float (or 0-d array) gives Python floats; an array gives arrays whose
elements equal the element-wise float calls.  The dynamics (evolve,
interaction_energy_at) keep the same contract for any rates and times.  A
CLI run exits 0, 1 or 2 without a traceback or a warning, and on exit 0
prints only finite rows and nothing on stderr.
"""

import contextlib
import io
import math
import re
import warnings
from dataclasses import astuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chidip import (
    ChidipError,
    GeometryInvariants,
    MediumChirality,
    a_t,
    aux_i1,
    aux_i2,
    collective_spectrum,
    evolve,
    f1,
    f2,
    interaction_energy_at,
)
from chidip.cli import _FLAGS, SCENARIOS, main

# each public closed form as x -> tuple of its float (or array) outputs
CLOSED_FORMS = {
    "f1": lambda x, m, g: (f1(x, m, g),),
    "f2": lambda x, m, g: (f2(x, m, g),),
    "a_t": lambda x, m, g: (lambda v: (v.real, v.imag))(a_t(x, m, g)),
    "aux_i1": lambda x, m, g: astuple(aux_i1(x)),
    "aux_i2": lambda x, m, g: astuple(aux_i2(x)),
    "collective_spectrum":
        lambda x, m, g: astuple(collective_spectrum(x, m, g)),
}

# the whole float line, with weight on the ends where the closed forms stop
# (f2 and the aux integrals at tiny x, n*x overflow at huge x)
X = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e-3, 1e3),
    st.floats(1e-320, 1e-90),
    st.floats(1e290, 1.7976931348623157e308),
    st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan,
                     5e-324, 1e-300, 1e-160, 0.05, 0.0499999]),
)
# index pairs: moderate indices, and the whole positive float line, where
# MediumChirality refuses what the closed forms cannot keep finite; each
# index a Python float or a numpy scalar, and one time in ten not a number
REAL_INDEX = st.tuples(
    st.one_of(st.floats(0.1, 10.0), st.floats(5e-324, 1.7976931348623157e308)),
    st.booleans()).map(lambda vb: np.float64(vb[0]) if vb[1] else vb[0])
INDEX = st.one_of(*[REAL_INDEX] * 9, st.sampled_from(["3", 1j, None]))
MEDIA = st.tuples(INDEX, INDEX)
UNIT = st.floats(-1.0, 1.0)
GEOMETRIES = st.builds(GeometryInvariants, UNIT, UNIT, UNIT)

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def _outcome(fn, *args):
    """fn(*args), or the ChidipError it raised; any warning fails the
    test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except ChidipError as exc:
            return exc


@CONTRACT
@given(X, MEDIA, GEOMETRIES)
def test_float_x_gives_finite_floats_or_chidip_error(x, indices, g):
    m = _outcome(MediumChirality, *indices)
    if isinstance(m, ChidipError):
        return
    for name, fn in CLOSED_FORMS.items():
        got = _outcome(fn, x, m, g)
        zero_d = _outcome(fn, np.array(x), m, g)
        if isinstance(got, ChidipError):
            assert type(zero_d) is type(got), name
            assert str(zero_d) == str(got), name
            continue
        assert all(type(v) is float and math.isfinite(v) for v in got), name
        assert zero_d == got, name


@CONTRACT
@given(st.lists(X, min_size=1, max_size=6), MEDIA, GEOMETRIES)
def test_array_x_matches_elementwise_floats(xs, indices, g):
    m = _outcome(MediumChirality, *indices)
    if isinstance(m, ChidipError):
        return
    for name, fn in CLOSED_FORMS.items():
        got = _outcome(fn, np.array(xs), m, g)
        each = [_outcome(fn, x, m, g) for x in xs]
        failed = [isinstance(e, ChidipError) for e in each]
        if isinstance(got, ChidipError):
            assert any(failed), name
            continue
        assert not any(failed), name
        for k, column in enumerate(got):
            assert isinstance(column, np.ndarray), name
            assert column.shape == (len(xs),), name
            assert np.all(np.isfinite(column)), name
            want = np.array([e[k] for e in each])
            np.testing.assert_allclose(column, want, rtol=1e-14,
                                       atol=1e-15 * m.n_bar, err_msg=name)


# ---------------------------------------------------------------------------
# dynamics

REALS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))
RATES = st.builds(complex, REALS, REALS)
TIMES = st.one_of(
    st.lists(st.one_of(st.floats(0.0, 1e3), st.floats(0.0, 1.7e308),
                       st.sampled_from([0.0, 1e308, math.inf, math.nan, -1.0])),
             min_size=1, max_size=5).map(sorted),
    st.lists(REALS, min_size=0, max_size=4),
)


@CONTRACT
@given(RATES, RATES, TIMES)
def test_evolve_gives_finite_amplitudes_or_chidip_error(a_l, a_t, times):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            traj = evolve(a_l, a_t, times)
        except ChidipError:
            return
        for column in (traj.c1, traj.c2, traj.c_plus, traj.c_minus,
                       traj.e_int, traj.p1, traj.p2):
            assert column.shape == traj.times.shape
            assert np.all(np.isfinite(column))


@CONTRACT
@given(RATES, st.lists(RATES, min_size=1, max_size=4), REALS)
def test_interaction_energy_at_gives_finite_values_or_chidip_error(a_l, a_t,
                                                                   time):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            e_int = interaction_energy_at(a_l, a_t, time)
        except ChidipError:
            return
    assert e_int.shape == (len(a_t),)
    assert np.all(np.isfinite(e_int))


# ---------------------------------------------------------------------------
# CLI

# valid values nine times out of ten, so that many runs reach the kernel
def _mostly(valid, invalid):
    return st.one_of(*[valid] * 9, invalid)


NUMBER = _mostly(
    st.floats(0.05, 20.0).map(repr),
    st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
              st.sampled_from(["0", "-1", "1e-300", "1e308", "1.7e308", "x",
                               ""])))
POINTS = _mostly(st.integers(2, 40).map(str),
                 st.sampled_from(["-1", "0", "1", "1.5", "x"]))
RANGE = st.one_of(
    NUMBER,
    st.builds(lambda a, b: f"{a}:{b}", NUMBER, NUMBER),
    st.builds(lambda a, b, n: f"{a}:{b}:{n}", NUMBER, NUMBER, POINTS),
    st.builds(lambda a, b, n: f"{min(a, b)!r}:{max(a, b)!r}:{n}",
              st.floats(0.0, 1e308), st.floats(0.0, 1e308), POINTS),
)
VECTOR = _mostly(st.builds(lambda *v: ",".join(v), NUMBER, NUMBER, NUMBER),
                 st.sampled_from(["1,0", "0,0,0", "1,0,0,0"]))


def _flags(*pairs):
    """argv fragment from (flag, value strategy) pairs."""
    return st.tuples(*(st.tuples(st.just(f), v) for f, v in pairs)).map(
        lambda kvs: [t for kv in kvs for t in kv])


def _maybe(fragment):
    return st.one_of(st.just([]), fragment)


GEOMETRY = st.one_of(
    _mostly(_flags(("--scenario", st.sampled_from(list(SCENARIOS)))),
            st.just([])),
    _flags(("--scenario", st.just("custom")), ("--d1", VECTOR),
           ("--d2", VECTOR), ("--axis", VECTOR)),
)
MEDIUM = st.one_of(
    st.just([]),
    _flags(("--n-left", NUMBER), ("--n-right", NUMBER)),
    _flags(("--n-bar", NUMBER)),
    _flags(("--n-bar", NUMBER), ("--rotation", NUMBER)),
)
FORMAT = _maybe(_flags(("--format", _mostly(st.sampled_from(["csv", "json"]),
                                            st.just("xml")))))
CUTOFF = _flags(("--lamb-cutoff", NUMBER))
# one flag that may clash with the others, be unknown to the command, or
# lack its value
STRAY = st.one_of(
    st.builds(lambda f, v: [f, v], st.sampled_from([*_FLAGS, "--bogus"]),
              NUMBER),
    st.sampled_from([[f] for f in _FLAGS]),
)
COMMANDS = {
    "sweep": (GEOMETRY, MEDIUM, _maybe(_flags(("--x", RANGE))), FORMAT,
              _maybe(CUTOFF)),
    "dynamics": (GEOMETRY, MEDIUM, _flags(("--x", _mostly(NUMBER, RANGE))),
                 _maybe(_flags(("--time", RANGE))), FORMAT),
    "lamb": (MEDIUM, _mostly(CUTOFF, st.just([])), FORMAT),
}
ARGV = st.one_of(*(
    st.tuples(*parts, _mostly(st.just([]), STRAY)).map(
        lambda frags, c=command: [c, *(t for f in frags for t in f)])
    for command, parts in COMMANDS.items()))
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ARGV)
@example(["dynamics", "--scenario", "isotropic", "--n-bar", "1e10",
          "--x", "2", "--time", "0:1e308:3"])
@example(["dynamics", "--scenario", "isotropic", "--x", "2",
          "--time", "0:inf:3"])
@example(["sweep", "--scenario", "isotropic", "--x", "1e-300:1e-299:2"])
@example(["sweep", "--scenario", "isotropic", "--n-left", "1.7e308",
          "--n-right", "1.7e308"])
@example(["sweep", "--scenario", "isotropic", "--n-bar", "8e307",
          "--x", "1e-300:2e-300:2"])
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert not NON_FINITE.search(out.getvalue())
    else:
        assert out.getvalue() == ""
