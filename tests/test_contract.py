"""Input contract of the library and the CLI, as hypothesis properties.

For any pair of positive indices (Python floats or numpy float64 or
float32 scalars, up to the float maximum) MediumChirality builds a medium
or raises a ChidipError, and it raises a ChidipError for an index that is
not a real number.  Every public scalar number input takes numpy scalars
of any width and refuses what is not one real number by the same rule.
For any such medium and any x, a float or a 1-d array, each public closed
form returns finite values or raises a ChidipError, and emits no warning.
A float (or 0-d array) gives Python floats; an array gives arrays whose
elements equal the element-wise float calls.  normalize_geometry builds
unit vectors and a positive float x, or raises a ChidipError, for any
vectors and separation, numbers or not.  The dynamics (evolve,
interaction_energy_at) keep the same contract for any rates and times.  A
CLI run exits 0, 1 or 2 without a traceback or a warning, on exit 0
prints only finite rows and nothing on stderr, and on exit 2 prints one
stderr line naming the command.
"""

import contextlib
import io
import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chidip import (
    ChidipError,
    DomainError,
    GeometryInvariants,
    InvalidSeparation,
    LambCutoff,
    MediumChirality,
    a_t,
    aux_i1,
    aux_i2,
    collective_spectrum,
    evolve,
    f1,
    f2,
    interaction_energy_at,
    normalize_geometry,
)
from chidip.cli import _FLAGS, SCENARIOS, main
from chidip.oracle import f1_oracle, f2_oracle

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
# index a Python float, a numpy float64 or a float32 scalar, and one time
# in ten not a number
POSITIVE = st.one_of(st.floats(0.1, 10.0),
                     st.floats(5e-324, 1.7976931348623157e308))
REAL_INDEX = st.one_of(
    POSITIVE, POSITIVE.map(np.float64),
    st.one_of(st.floats(0.125, 8.0, width=32),
              st.floats(0.0, exclude_min=True, allow_infinity=False,
                        width=32)).map(np.float32))
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
# scalar number inputs: one rule, that of the closed forms' x

ORTHOGONAL = normalize_geometry((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
ACTIVE = MediumChirality(1.5, 2.0)
INVARIANTS = GeometryInvariants(0.5, 0.25, 0.5)
# every public scalar number input as (value -> result, the ChidipError it
# raises for a value that is not one real number)
SCALAR_SITES = {
    "n_left": (lambda v: MediumChirality(v, 1.0), DomainError),
    "n_right": (lambda v: MediumChirality(1.0, v), DomainError),
    "n_bar": (lambda v: MediumChirality.from_mean_and_rotation(v, 0.5),
              DomainError),
    "rotation": (lambda v: MediumChirality.from_mean_and_rotation(3.0, v),
                 DomainError),
    "lambda_cutoff": (LambCutoff, DomainError),
    "normalize_geometry x": (lambda v: normalize_geometry(
        (1, 0, 0), (0, 1, 0), (0, 0, 1), v), InvalidSeparation),
    "f1 x": (lambda v: f1(v, ACTIVE, INVARIANTS), InvalidSeparation),
    "f2 x": (lambda v: f2(v, ACTIVE, INVARIANTS), InvalidSeparation),
    "aux_i1 u": (aux_i1, DomainError),
    "f1_oracle refine_tol": (lambda v: f1_oracle(1.0, ACTIVE, ORTHOGONAL,
                                                 refine_tol=v), DomainError),
    "f2_oracle refine_tol": (lambda v: f2_oracle(1.0, ACTIVE, ORTHOGONAL,
                                                 refine_tol=v), DomainError),
}
NOT_ONE_REAL = (True, "1", None, 1j, 10**400)


@pytest.mark.parametrize(
    "values",
    [(np.float16(2), np.float32(2), np.float64(2), np.int64(2)),
     *((v,) for v in NOT_ONE_REAL)],
    ids=["numpy scalars", *map(repr, NOT_ONE_REAL[:-1]), "10**400"])
def test_every_scalar_input_takes_numbers_by_one_rule(values):
    # a numpy scalar of any width is taken as the Python float 2.0, with no
    # warning; anything else is refused with the site's own ChidipError
    for name, (site, error) in SCALAR_SITES.items():
        for value in values:
            got = _outcome(site, value)
            if isinstance(value, np.generic):
                assert repr(got) == repr(site(2.0)), name
            else:
                assert type(got) is error, name


def test_refusals_echo_a_bounded_value():
    # a refusal cuts the value it echoes to a few elements of a few dozen
    # characters each: 10**400 has 401 digits, and the lists 300 elements
    # (at 434 and 1531 characters a message used to echo them whole); a
    # scalar input asks for "a real number"
    for name, (site, error) in SCALAR_SITES.items():
        for value in (10**400, list(range(300)), [10**400] * 300):
            got = _outcome(site, value)
            assert type(got) is error and len(str(got)) <= 320, name
    got = _outcome(lambda v: MediumChirality(v, 1.0), 10**400)
    assert str(got) == f"n_left must be a real number, got {'1' + '0' * 17}" \
        f"...{'0' * 19}"


# ---------------------------------------------------------------------------
# geometry

# values that are not one real number: strings, None, complex, an integer
# beyond the float range, a list
NOT_REAL = st.sampled_from(["1", "abc", None, 1j, 10**400, [1.0, 2.0]])
COORD = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(-10.0, 10.0),
                  st.sampled_from([0.0, 1e308, -1.7e308, 5e-324]))
VECTORS = st.one_of(*[st.tuples(COORD, COORD, COORD)] * 8,
                    st.tuples(NOT_REAL, COORD, COORD), NOT_REAL)
SEPARATIONS = st.one_of(*[X] * 9, NOT_REAL)


@CONTRACT
@given(VECTORS, VECTORS, VECTORS, SEPARATIONS)
@example((1e308, 1e308, 0.0), (0, 1, 0), (0, 0, 1), 1.0)
@example(("abc", 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
@example((1j, 0, 0), (0, 1, 0), (0, 0, 1), 1.0)
@example((1, 0, 0), (0, 1, 0), (0, 0, 1), "1")
@example((1, 0, 0), (0, 1, 0), (0, 0, 1), None)
@example((1, 0, 0), (0, 1, 0), (0, 0, 1), 1j)
@example((1, 0, 0), (0, 1, 0), (0, 0, 1), 10**400)
@example((1, 0, 0), (0, 1, 0), (0, 0, 1), [1.0, 2.0])
def test_normalize_geometry_gives_unit_vectors_or_chidip_error(d1, d2, axis,
                                                               x):
    g = _outcome(normalize_geometry, d1, d2, axis, x)
    if isinstance(g, ChidipError):
        return
    for v in (g.d1_hat, g.d2_hat, g.r_hat):
        assert v.shape == (3,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert type(g.x) is float and math.isfinite(g.x) and g.x > 0.0


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
@example("x", 0.1, [0.0, 1.0])
@example(-0.5, 0.1, 1j)
@example(-0.5, 0.1, [0.0, 1j])
@example(None, 0.1, [0.0, 1.0])
@example(-0.5, [0.1, 0.2], [0.0, 1.0])
@example(-0.5, 0.1, [[0.0, 1.0], [2.0]])
@example(-0.5, 0.1, 10**400)
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
@given(RATES, st.lists(RATES, min_size=0, max_size=4), REALS)
@example(-0.5, [], 1.0)
@example("x", [0.1], 1.0)
@example(-0.5, ["abc"], 1.0)
@example(-0.5, [0.1], 1j)
@example(-0.5, [0.1], [1.0, 2.0])
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
@example(["sweep", "--scenario"])
@example(["sweep", "--scen", "isotropic"])
@example(["sweep", "--scenario", "isotropic", "--x=1:2:3"])
@example(["sweep", "--scenario", "isotropic",
          "--x", "1:2:100000000000000000000"])
@example(["sweep", "--scenario", "--x", "1:2:3"])
@example(["lamb", "--n-bar", "-1", "--lamb-cutoff", "--format"])
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
    if code == 2:
        # one line that names the command and the problem
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n")
        assert lines[0].startswith(f"chidip {argv[0]}:")
