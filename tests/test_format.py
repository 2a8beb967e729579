"""chidip._format against CPython's own '%.15g' % and repr, byte for byte
and with no tolerance, and the blocked emit of chidip.cli against the
reference emitter."""

import io
import tracemalloc

import numpy as np
import pytest

from chidip import _format, cli
from test_cli import _emit_reference

SPELLINGS = ((_format.g15, "%.15g".__mod__),
             (_format.shortest, float.__repr__))


def _assert_spelled(values):
    values = np.asarray(values, dtype=float)
    for spell, reference in SPELLINGS:
        got = spell(values)
        want = list(map(reference, values.tolist()))
        if b"\n".join(got).decode() != "\n".join(want):
            wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want)
                     if g != w.encode()]
            raise AssertionError(f"{spell.__name__}: {len(wrong)} wrong, "
                                 f"{wrong[:5]}")


def _random_bits(n, seed):
    """Finite doubles from n seeded random bit patterns, which cover every
    binary exponent, plus n // 20 subnormals of random mantissa."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    sub = (rng.integers(1, 2**52, n // 20, dtype=np.uint64)
           | rng.integers(0, 2, n // 20, dtype=np.uint64) << np.uint64(63))
    return np.concatenate([bits[np.isfinite(bits)], sub.view(np.float64)])


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf), -values])


def test_random_bit_patterns_match_cpython():
    _assert_spelled(_random_bits(200_000, 20))


def test_powers_of_ten_and_two_and_their_neighbours_match_cpython():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_spelled(_with_neighbours(np.concatenate([tens, twos])))


@pytest.mark.parametrize("toward", [-np.inf, np.inf])
def test_exponent_is_corrected_whichever_way_log10_errs(monkeypatch, toward):
    # the exponent must not rest on log10 being exact at a power of ten
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    tens = np.array([float(f"1e{k}") for k in range(-280, 280)])
    _assert_spelled(_with_neighbours(tens))


def test_integers_up_to_2_to_the_60_match_cpython():
    rng = np.random.default_rng(21)
    ints = rng.integers(0, 2**60, 20_000) >> rng.integers(0, 61, 20_000)
    _assert_spelled(np.concatenate([np.arange(-1000, 1001), ints,
                                    2 ** np.arange(61)]).astype(float))


def test_notation_switches_and_zeros_match_cpython():
    # %.15g switches to exponent form below 1e-4 and from 1e15 (and
    # 999999999999999.9 rounds up to it); repr below 1e-4 and from 1e16
    switches = [1e-5, 1e-4, 1e15, 1e16, 999999999999999.9,
                9.999999999999999e-05, 99999.99999999999, 0.1, 0.5, 1.0]
    _assert_spelled(np.concatenate([_with_neighbours(switches),
                                    [0.0, -0.0]]))
    assert _format.g15(np.array([-0.0, 0.0])) == [b"-0", b"0"]
    assert _format.shortest(np.array([-0.0, 0.0])) == [b"-0.0", b"0.0"]


def test_out_of_range_and_non_finite_elements_take_python_spelling():
    odd = np.array([np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                    1e-281, 1e280, -1.7976931348623157e308])
    a = np.abs(odd)
    assert not ((a >= _format._SMALL) & (a < _format._LARGE)).any()
    # spelled among arithmetic-path neighbours, each by its own %
    values = np.insert(odd, np.arange(odd.size), 0.25)
    _assert_spelled(values)


def test_arithmetic_path_covers_nearly_every_value_in_range():
    # a change that sent every element to Python's % would still spell them
    # right; the share of decisions left to it must stay small
    a = np.abs(_random_bits(50_000, 22))
    a = a[(a >= _format._SMALL) & (a < _format._LARGE)]
    for p in (15, 17):
        close = _format._digits(a, p)[2]
        assert close.mean() < 0.02, (p, close.mean())


@pytest.mark.parametrize("ncols", [6, 9])
def test_tables_around_block_edges_match_reference_emitter(ncols):
    rows = cli._BLOCK_VALUES // ncols
    rng = np.random.default_rng(ncols)
    pool = np.concatenate([rng.standard_normal(50) * 10.0 ** rng.integers(
        -8, 8, 50), [0.0, -0.0, 1.0, 1e-5, 1e16]])
    for n_rows in (1, rows - 1, rows + 1, 2 * rows - 1, 2 * rows + 1):
        columns = {f"c{j}": rng.choice(pool, n_rows) for j in range(ncols)}
        for fmt in ("csv", "json"):
            out = io.StringIO()
            cli._emit_table(columns, fmt, out)
            assert out.getvalue() == _emit_reference(columns, fmt), (
                n_rows, fmt)


class _Sink:
    """A text stream that keeps only the count of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_emit_memory_is_bounded_by_the_block():
    # 2e5 JSON rows: the whole-table emit held every row's string and their
    # join, 25 MB; blocks of _BLOCK_VALUES values need under 3 MB
    columns, sink = {"t": np.linspace(0.0, 30.0, 200_000)}, _Sink()
    tracemalloc.start()
    try:
        cli._emit_table(columns, "json", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 7_000_000
    assert peak < 4e6, peak
