import io
import json
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chidip import GeometryInvariants, a_l_damping, evolve, f1
from chidip.cli import (SweepRequest, _emit_table, _parse_flags, main,
                        parse_config, run_sweep)
from chidip.collective import MediumChirality
from chidip.errors import UsageError

BASE_HEADER = "x,gamma_s,gamma_as,delta,f1,f2,e_int"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(","))))
            for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# sweep

def test_sweep_happy_path_csv(capsys):
    code, out, err = run_cli(capsys, "sweep", "--scenario",
                             "orthogonal-perpendicular", "--n-bar", "3",
                             "--x", "0.5:10:20")
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert ",".join(header) == BASE_HEADER
    assert len(rows) == 20
    assert rows[0]["x"] == 0.5 and rows[-1]["x"] == 10.0
    for r in rows:
        assert r["gamma_s"] == 3.0 and r["gamma_as"] == 3.0
        assert r["delta"] == 0.0 and r["e_int"] == 0.0


def test_sweep_default_grid_has_200_points(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--scenario", "isotropic")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 200
    assert rows[0]["x"] == 0.5 and rows[-1]["x"] == 10.0


def test_sweep_json_mirrors_csv(capsys):
    args = ("sweep", "--scenario", "syntropic-perpendicular",
            "--n-left", "1.5", "--n-right", "4.5", "--x", "1:4:7")
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    header, rows = parse_csv(out_csv)
    data = json.loads(out_json)
    assert len(data) == len(rows) == 7
    assert list(data[0].keys()) == header
    for obj, row in zip(data, rows):
        for key in header:
            assert math.isclose(obj[key], row[key], rel_tol=1e-14,
                                abs_tol=1e-300)


def test_sweep_rows_match_library(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--scenario", "isotropic",
                           "--n-left", "1.5", "--n-right", "4.5",
                           "--x", "0.5:10:11", "--time", "1.0")
    assert code == 0
    _, rows = parse_csv(out)
    req = parse_config(["--scenario", "isotropic", "--n-left", "1.5",
                        "--n-right", "4.5", "--x", "0.5:10:11"])
    lib = run_sweep(req)
    assert list(lib) == BASE_HEADER.split(",")
    assert all(len(col) == len(rows) == 11 for col in lib.values())
    for i, got in enumerate(rows):
        assert math.isclose(got["f1"], lib["f1"][i], rel_tol=1e-12,
                            abs_tol=1e-14)
        assert math.isclose(got["f2"], lib["f2"][i], rel_tol=1e-12,
                            abs_tol=1e-14)
        assert math.isclose(got["e_int"], lib["e_int"][i], rel_tol=1e-12,
                            abs_tol=1e-14)
        assert math.isclose(got["gamma_s"] + got["gamma_as"], 6.0,
                            rel_tol=1e-14)


def _first_f1_zero(m, g):
    """A separation where f1 changes sign, to a few ulps."""
    lo, hi = 1.0, 3.0
    assert f1(lo, m, g) * f1(hi, m, g) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f1(mid, m, g) * f1(lo, m, g) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def test_sweep_e_int_matches_evolve():
    # the sweep's closed-form E_int(t) against the amplitudes of evolve at
    # the same single time, per x
    iso = ["--scenario", "isotropic", "--n-left", "1.5", "--n-right", "4.5"]
    c_zero = ["--scenario", "syntropic-perpendicular", "--n-bar", "1"]
    orth_inactive = ["--scenario", "orthogonal-perpendicular", "--n-bar", "3"]
    # near the first zero of f1 for parallel dipoles (c = 0) in vacuum
    x0 = _first_f1_zero(MediumChirality(1.0, 1.0),
                        GeometryInvariants(1.0, 0.0, 0.0))
    grids = [(iso, "0.01:10:9"), (c_zero, f"{x0!r}:{x0 + 1e-9!r}:3"),
             (c_zero, "0.5:8:9"), (orth_inactive, "0.5:5:4")]
    worst_f1 = math.inf
    for flags, grid in grids:
        for t in ("0", "1.0", "2.5", "40"):
            req = parse_config([*flags, "--x", grid, "--time", t])
            cols = run_sweep(req)
            a_l = complex(a_l_damping(req.medium), 0.0)
            for f1v, f2v, e in zip(cols["f1"], cols["f2"], cols["e_int"]):
                want = evolve(a_l, complex(-f1v, f2v), [float(t)]).e_int[0]
                assert math.isclose(e, want, rel_tol=1e-12, abs_tol=1e-14)
                worst_f1 = min(worst_f1, abs(f1v))
    assert worst_f1 < 1e-12         # the grid reached f1 ~ 0


def test_sweep_lamb_cutoff_appends_absolute_shift_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--scenario", "isotropic",
                           "--x", "1:2:3", "--lamb-cutoff", "206048.4")
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == BASE_HEADER + ",delta_plus,delta_minus"
    for r in rows:
        assert math.isclose(r["delta_plus"] - r["delta_minus"], r["delta"],
                            rel_tol=1e-12, abs_tol=1e-14)


def test_rotation_flag_equals_explicit_pair(capsys):
    base = ("sweep", "--scenario", "orthogonal-perpendicular",
            "--x", "0.5:5:9")
    code, out_pair, _ = run_cli(capsys, *base, "--n-left", "1.5",
                                "--n-right", "4.5")
    assert code == 0
    code, out_rot, _ = run_cli(capsys, *base, "--n-bar", "3",
                               "--rotation", "-1.5")
    assert code == 0
    assert out_pair == out_rot
    # a negative value in exponent notation is a value, not a flag
    outs = []
    for rotation in ("-1e-3", "-0.001"):
        code, out, err = run_cli(capsys, *base, "--n-bar", "3",
                                 "--rotation", rotation)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_flags_take_full_names_and_inline_values(capsys):
    # an abbreviated flag is not a flag; the usage error names it
    code, out, err = run_cli(capsys, "sweep", "--scen", "isotropic")
    assert code == 2 and out == ""
    assert err == "chidip sweep: unrecognized argument '--scen'\n"
    # --flag=VALUE is the same as --flag VALUE
    base = ("sweep", "--scenario", "isotropic")
    code, out_inline, _ = run_cli(capsys, *base, "--x=1:2:3")
    assert code == 0
    code, out_split, _ = run_cli(capsys, *base, "--x", "1:2:3")
    assert code == 0
    assert out_inline == out_split
    # a token that starts with '--' is the next flag, never a value: the
    # error names the flag that lacks its value
    code, out, err = run_cli(capsys, "sweep", "--scenario", "--x", "1:2:3")
    assert code == 2 and out == ""
    assert err == "chidip sweep: --scenario expects a value\n"
    code, out, err = run_cli(capsys, "lamb", "--n-bar", "-1",
                             "--lamb-cutoff", "--format")
    assert code == 2 and out == ""
    assert err == "chidip lamb: --lamb-cutoff expects a value\n"


# ---------------------------------------------------------------------------
# request parsing and config files

def _accepts(command, flag):
    """Whether the subcommand's parser takes flag (any refusal but
    'unrecognized argument' means it does)."""
    try:
        _parse_flags(command, [flag, "1"])
    except UsageError as exc:
        return "unrecognized argument" not in str(exc)
    return True


def test_subcommand_help_lists_its_flags(capsys):
    every = set("--scenario --d1 --d2 --axis --n-left --n-right --n-bar "
                "--rotation --x --time --format --lamb-cutoff "
                "--config".split())
    for command in ("sweep", "dynamics", "lamb"):
        takes = {flag for flag in every if _accepts(command, flag)}
        assert "--config" in takes and "--n-left" in takes
        for option in ("--help", "-h"):
            code, out, err = run_cli(capsys, command, "--format", "json",
                                     option)
            assert code == 0 and out == ""
            assert set(re.findall(r"--[a-z0-9-]+", err)) == takes, command
    # lamb takes no scene and dynamics no cutoff
    assert not _accepts("lamb", "--x") and not _accepts("dynamics",
                                                         "--lamb-cutoff")


def test_parse_config_defaults():
    req = parse_config(["--scenario", "isotropic"])
    assert isinstance(req, SweepRequest)
    assert req.medium == MediumChirality(1.0, 1.0)
    assert (req.x_start, req.x_stop, req.n_points) == (0.5, 10.0, 200)
    assert req.time_sample == 1.0
    assert req.output_format == "csv"
    assert req.lamb_cutoff is None


def test_points_default_when_range_has_two_fields():
    req = parse_config(["--scenario", "isotropic", "--x", "1:6"])
    assert (req.x_start, req.x_stop, req.n_points) == (1.0, 6.0, 200)


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# chiral run\nn_bar = 1.5\nlamb_cutoff = 100\n")
    code, out_file, _ = run_cli(capsys, "lamb", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out_file)
    assert rows[0]["n_bar"] == 1.5
    # explicit flag wins over the file value
    code, out_flag, _ = run_cli(capsys, "lamb", "--config", str(cfg),
                                "--n-bar", "3")
    assert code == 0
    _, rows = parse_csv(out_flag)
    assert rows[0]["n_bar"] == 3.0
    assert math.isclose(rows[0]["delta_lamb"],
                        3.0 * math.log(100.0) / (2 * math.pi), rel_tol=1e-14)


def test_config_unknown_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_middle=2\n")
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "n_middle" in err


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n_bar=2\n# \xff\n")
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("chidip sweep: cannot read config file")


def test_custom_scenario_requires_vectors(capsys):
    code, out, err = run_cli(capsys, "sweep", "--scenario", "custom")
    assert code == 2 and out == "" and "--d1" in err

    code, out, err = run_cli(capsys, "sweep", "--scenario", "custom",
                             "--d1", "1,0,0", "--d2", "0,1,0",
                             "--axis", "0,0,1", "--x", "1:2:3")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3

    outs = []
    for d1 in ("-1e-3,1,0", "-0.001,1,0"):
        code, out, err = run_cli(capsys, "sweep", "--scenario", "custom",
                                 "--d1", d1, "--d2", "0,1,0",
                                 "--axis", "0,0,1", "--x", "1:2:3")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_preset_conflicts_with_explicit_vectors(capsys):
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--d1", "1,0,0")
    assert code == 2 and out == "" and "--d1" in err


def test_rotation_conflicts_with_explicit_pair(capsys):
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--rotation", "-1.5", "--n-left", "2")
    assert code == 2 and out == ""
    assert "mutually exclusive" in err


def test_reversed_range_rejected(capsys):
    for argv in (("sweep", "--x", "10:0.5:200"),
                 ("sweep", "--x", "1:inf:50"),
                 ("sweep", "--x", "nan:5:50"),
                 ("dynamics", "--x", "2", "--time", "0:nan:3"),
                 ("dynamics", "--x", "2", "--time", "0:inf:3")):
        code, out, err = run_cli(capsys, *argv, "--scenario", "isotropic")
        assert code == 2 and out == ""
        assert "START" in err


def test_grid_above_the_points_ceiling_rejected(capsys):
    # refused before any grid is allocated, with the ceiling named
    for argv in (("sweep", "--x", "1:2:1000001"),
                 ("sweep", "--x", "1:2:100000000000000000000"),
                 ("dynamics", "--x", "2", "--time", "0:1:1000000000000000")):
        code, out, err = run_cli(capsys, *argv, "--scenario", "isotropic")
        assert code == 2 and out == ""
        assert "1000000]" in err
def test_separation_outside_float_range_names_first_x(capsys):
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--x", "1e-300:1e-299:2")
    assert code == 1 and out == ""
    assert err == ("chidip sweep: separation x=1e-300 is too small: "
                   "f2 ~ 1/x^3 overflows\n")
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--x", "1:1e308:3")
    assert code == 1 and out == ""
    assert err.startswith("chidip sweep: separation x=1e+308 is too large")


def test_unphysical_medium_fails_without_stdout(capsys):
    code, out, err = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--n-left", "-3", "--n-right", "1")
    assert code != 0 and out == "" and err != ""


# ---------------------------------------------------------------------------
# dynamics

def test_dynamics_columns_and_values(capsys):
    code, out, err = run_cli(capsys, "dynamics", "--scenario",
                             "syntropic-perpendicular", "--x", "2",
                             "--time", "0:2:5")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["t", "p1", "p2", "p_plus", "p_minus", "e_int"]
    assert len(rows) == 5
    assert rows[0]["t"] == 0.0 and rows[0]["p1"] == 1.0
    assert rows[0]["p2"] == 0.0
    total0 = rows[0]["p_plus"] + rows[0]["p_minus"]
    assert math.isclose(total0, 1.0, rel_tol=1e-12)
    # populations decay
    assert rows[-1]["p1"] < 1.0


def test_dynamics_decays_to_exact_zero_at_huge_times(capsys):
    # the decay exponent overflows to -inf past t ~ 1e298 here: the
    # amplitudes take their exact limit 0 without a warning on stderr
    code, out, err = run_cli(capsys, "dynamics", "--scenario", "isotropic",
                             "--n-bar", "1e10", "--x", "2",
                             "--time", "0:1e308:3")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [r["t"] for r in rows] == [0.0, 5e307, 1e308]
    assert rows[0]["p1"] == 1.0
    for r in rows[1:]:
        assert r["p1"] == r["p2"] == r["p_plus"] == r["p_minus"] == 0.0
        assert r["e_int"] == 0.0


def test_dynamics_requires_single_separation(capsys):
    code, out, err = run_cli(capsys, "dynamics", "--scenario", "isotropic",
                             "--x", "1:5:10")
    assert code == 2 and out == "" and "single separation" in err
    code, out, err = run_cli(capsys, "dynamics", "--scenario", "isotropic")
    assert code == 2 and out == ""


# ---------------------------------------------------------------------------
# lamb

def test_lamb_row(capsys):
    code, out, err = run_cli(capsys, "lamb", "--n-bar", "1",
                             "--lamb-cutoff", str(math.exp(2 * math.pi)))
    assert code == 0
    _, rows = parse_csv(out)
    assert math.isclose(rows[0]["delta_lamb"], 1.0, rel_tol=1e-14)


def test_lamb_requires_cutoff(capsys):
    code, out, err = run_cli(capsys, "lamb", "--n-bar", "1")
    assert code == 2 and out == "" and "lamb-cutoff" in err


# ---------------------------------------------------------------------------
# top level

def test_unknown_command(capsys):
    code, out, err = run_cli(capsys, "plot")
    assert code == 2 and out == "" and "unknown command" in err


def test_no_arguments_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2 and out == ""


def test_number_formatting_keeps_12_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--scenario",
                           "syntropic-perpendicular", "--x", "1:3:3")
    assert code == 0
    _, rows = parse_csv(out)
    # f1(x=1) in vacuum, syntropic-perpendicular; 12+ digits survive the
    # round trip
    want = f1(1.0, MediumChirality(1.0, 1.0),
              GeometryInvariants(1.0, 0.0, 0.0))
    assert math.isclose(rows[0]["f1"], want, rel_tol=1e-12)


def _emit_reference(columns, fmt):
    """The emitter before the row template: one format() per CSV value,
    json.dumps over one dict per row."""
    header = list(columns)
    rows = zip(*(np.asarray(c, dtype=float).tolist()
                 for c in columns.values()))
    if fmt == "csv":
        return "".join([",".join(header) + "\n"] + [
            ",".join(format(v + 0.0, ".15g") for v in row) + "\n"
            for row in rows])
    return json.dumps([dict(zip(header, row)) for row in rows],
                      indent=2) + "\n"


# finite floats, with weight where the spelling changes: signed zero,
# subnormals, the float max, integers from 1e15 on, and both sides of the
# .15g switch to exponent form at 1e-4 and 1e15
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.floats(9.99e-5, 1.001e-4), st.floats(9.99e14, 1.001e15),
    st.integers(10**15, 2**60).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     1e16, 9.999999999999999e-05, 999999999999999.9]),
)
NAMES = ("x", "gamma_s", "gamma_as", "delta", "f1", "f2", "e_int",
         "delta_plus", "delta_minus", "t")


def _table(ncols, nrows, pool, seed):
    """ncols named columns of nrows values picked from pool."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(pool), size=(ncols, nrows))
    return {name: np.array(pool)[p] for name, p in zip(NAMES, picks)}


TABLES = st.builds(_table, st.integers(1, 10), st.integers(1, 300),
                   st.lists(VALUES, min_size=1, max_size=40),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(TABLES)
def test_emit_table_matches_reference_emitter(columns):
    for fmt in ("csv", "json"):
        out = io.StringIO()
        _emit_table(columns, fmt, out)
        assert out.getvalue() == _emit_reference(columns, fmt), fmt


def test_output_is_deterministic(capsys):
    # byte-identical repetition is asserted per command in the acceptance
    # suite via subprocess; here: same-process repetition
    code1, out1, _ = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--x", "0.5:10:50")
    code2, out2, _ = run_cli(capsys, "sweep", "--scenario", "isotropic",
                             "--x", "0.5:10:50")
    assert code1 == code2 == 0
    assert out1 == out2
