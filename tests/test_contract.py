"""Input contract of the closed forms, as hypothesis properties.

For any x, a float or a 1-d array, each public closed form returns finite
values or raises a ChidipError, and emits no warning.  A float (or 0-d
array) gives Python floats; an array gives arrays whose elements equal the
element-wise float calls.
"""

import math
import warnings
from dataclasses import astuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chidip import (
    ChidipError,
    GeometryInvariants,
    MediumChirality,
    a_t,
    aux_i1,
    aux_i2,
    collective_spectrum,
    f1,
    f2,
)

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
MEDIA = st.builds(MediumChirality, st.floats(0.1, 10.0), st.floats(0.1, 10.0))
UNIT = st.floats(-1.0, 1.0)
GEOMETRIES = st.builds(GeometryInvariants, UNIT, UNIT, UNIT)

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def _outcome(name, x, m, g):
    """The outputs of one call, or the ChidipError it raised; any warning
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return CLOSED_FORMS[name](x, m, g)
        except ChidipError as exc:
            return exc


@CONTRACT
@given(X, MEDIA, GEOMETRIES)
def test_float_x_gives_finite_floats_or_chidip_error(x, m, g):
    for name in CLOSED_FORMS:
        got = _outcome(name, x, m, g)
        zero_d = _outcome(name, np.array(x), m, g)
        if isinstance(got, ChidipError):
            assert type(zero_d) is type(got), name
            assert str(zero_d) == str(got), name
            continue
        assert all(type(v) is float and math.isfinite(v) for v in got), name
        assert zero_d == got, name


@CONTRACT
@given(st.lists(X, min_size=1, max_size=6), MEDIA, GEOMETRIES)
def test_array_x_matches_elementwise_floats(xs, m, g):
    for name in CLOSED_FORMS:
        got = _outcome(name, np.array(xs), m, g)
        each = [_outcome(name, x, m, g) for x in xs]
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
