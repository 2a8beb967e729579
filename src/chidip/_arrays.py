"""Array plumbing shared by the closed forms, the geometry and the dynamics.

The public functions of :mod:`chidip.specfun` and :mod:`chidip.collective`
take a float or an array of any shape and run one array code path; these
helpers turn the input into an array, name the first value that fails a
check, and hand a 0-d result back as a Python float; ``horner`` evaluates
the power-series tables of both modules, ``piecewise`` picks their branch.
:mod:`chidip.geometry` and :mod:`chidip.dynamics` take their vectors,
separation, rates and times through ``as_floats`` too, so that a value of
the wrong type raises the module's own ChidipError: ``as_floats`` is the
one rule for what a number is, and ``one_float`` applies it to the scalar
inputs (indices, Lamb cutoff, separation, oracle tolerance).  A refusal
echoes the value through ``reprlib``, which cuts a long number to 40
characters and a list to its first six elements.
"""

from __future__ import annotations

import reprlib

import numpy as np


def as_floats(values, error, what: str, dtype=float) -> np.ndarray:
    """values as a float array; raises error unless they are real numbers
    (complex values are refused, not cast).  With dtype=complex: values as
    a complex array, and complex numbers are accepted."""
    kinds, kind = (("iufc", "numbers") if dtype is complex
                   else ("iuf", "real numbers"))
    try:
        array = np.asarray(values)
    except ValueError:                  # a ragged nested sequence
        array = None
    if array is None or array.dtype.kind not in kinds:
        raise error(f"{what} must be {kind}, got {reprlib.repr(values)}")
    return array.astype(dtype, copy=False)


def one_float(value, error, what: str) -> float:
    """value as a Python float; raises error unless as_floats takes it and
    it is one number (0-d)."""
    try:
        array = as_floats(value, error, what)
    except error:
        array = None
    if array is None or array.ndim != 0:
        raise error(
            f"{what} must be a real number, got {reprlib.repr(value)}") from None
    return float(array)


def first_failing(values: np.ndarray, ok) -> float:
    """The first of values (in C order) where the mask ok is False."""
    return float(values[~ok][0])


def to_output(result):
    """A Python float for a 0-d result, the array itself otherwise."""
    return result.item() if result.ndim == 0 else result


def horner(table, z):
    """The polynomials of table (highest power first, one row per power,
    each shaped (columns, 1)) at a 1-d z: one row per column, in place."""
    acc = table[0] * z + table[1]
    for row in table[2:]:
        acc *= z
        acc += row
    return acc


def piecewise(below, low, high, v):
    """The rows of low(v) where the mask below holds, of high(v) elsewhere:
    each form runs on its own elements alone, on v itself when they are all
    of v; a form returns rows shaped like v."""
    if not below.any():
        return high(v)
    if below.all():
        return low(v)
    above = ~below
    lo, hi = low(v[below]), high(v[above])
    out = np.empty((len(lo),) + v.shape)
    for row, a, b in zip(out, lo, hi):
        row[below], row[above] = a, b
    return out
