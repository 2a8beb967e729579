"""Command-line front end: separation sweeps, excitation dynamics, Lamb shift.

Three subcommands, all writing machine-readable rows to stdout (errors go to
stderr, never stdout):

    chidip sweep    — collective rates/shifts + interaction energy vs x
    chidip dynamics — populations and interaction energy vs time at fixed x
    chidip lamb     — the renormalized single-dipole shift for a given cutoff

Scenario presets fix the dipole orientations and the interdipole axis:

    orthogonal-perpendicular   d1 = x, d2 = y, axis = z   (a=0, b=0, c=-1)
    syntropic-perpendicular    d1 = d2 = x, axis = z      (a=1, b=0, c=0)
    isotropic                  d1 = d2 = (1,1,1)/sqrt(3), axis = z
    custom                     requires --d1/--d2/--axis

The medium defaults to vacuum; it can be given either as the explicit pair
--n-left/--n-right, as --n-bar alone (inactive medium), or as --n-bar with
--rotation (specific rotation divided by the wave vector, applied with the
half-difference convention; see MediumChirality.from_mean_and_rotation).

Flags take their full names, as --flag VALUE (also -1e-3, but never a token
starting with --) or --flag=VALUE; `chidip COMMAND --help` (or -h) lists
the flags of one subcommand.
A flat key=value config file (--config) supplies defaults for any flag
(keys are flag names with '-' replaced by '_'); explicit flags win.
Output is byte-identical across repeated runs with identical inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import collective, dynamics
from .collective import LambCutoff, MediumChirality
from .errors import ChidipError, UsageError
from .geometry import geometry_factors, normalize_geometry

SCENARIOS = {
    "orthogonal-perpendicular": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "syntropic-perpendicular": ((1, 0, 0), (1, 0, 0), (0, 0, 1)),
    "isotropic": ((1, 1, 1), (1, 1, 1), (0, 0, 1)),
}

_SCENE = ("sweep", "dynamics")
_MEDIUM = ("sweep", "dynamics", "lamb")

# flag -> subcommands that take it; each flag is also a config key (its
# name without the leading '--', '-' replaced by '_').  --config is taken
# by every subcommand and is not a config key.
_FLAGS = {
    "--scenario": _SCENE, "--d1": _SCENE, "--d2": _SCENE, "--axis": _SCENE,
    "--n-left": _MEDIUM, "--n-right": _MEDIUM, "--n-bar": _MEDIUM,
    "--rotation": _MEDIUM, "--x": _SCENE, "--time": _SCENE,
    "--format": _MEDIUM, "--lamb-cutoff": ("sweep", "lamb"),
}
_DEFAULT_X = "0.5:10:200"
_DEFAULT_TIME_GRID = "0:5:200"
# most points of a START:STOP:POINTS grid; numpy refuses or runs out of
# memory on grids many orders of magnitude larger
_MAX_POINTS = 10**6


@dataclass(frozen=True)
class SweepRequest:
    d1: tuple
    d2: tuple
    axis: tuple
    medium: MediumChirality
    x_start: float
    x_stop: float
    n_points: int
    time_sample: float
    output_format: str
    lamb_cutoff: float | None


def run_sweep(req: SweepRequest) -> dict[str, np.ndarray]:
    """Evaluate the collective spectrum and E_int(time_sample) on the grid.

    Returns the output columns by name, in output order: x, gamma_s,
    gamma_as, delta, f1, f2, e_int, and with a Lamb cutoff also delta_plus,
    delta_minus.
    """
    g = geometry_factors(normalize_geometry(req.d1, req.d2, req.axis,
                                            req.x_start))
    cutoff = LambCutoff(req.lamb_cutoff) if req.lamb_cutoff is not None else None
    x = np.linspace(req.x_start, req.x_stop, req.n_points)
    spec = collective.collective_spectrum(x, req.medium, g, cutoff)
    a_l = collective.a_l_damping(req.medium)
    columns = {
        "x": x,
        "gamma_s": 2.0 * spec.gamma_plus,
        "gamma_as": 2.0 * spec.gamma_minus,
        "delta": spec.delta,
        "f1": spec.f1,
        "f2": spec.f2,
        "e_int": dynamics.interaction_energy_at(
            a_l, -spec.f1 + 1j * spec.f2, req.time_sample),
    }
    if cutoff is not None:
        columns.update(delta_plus=spec.delta_plus,
                       delta_minus=spec.delta_minus)
    return columns


# ---------------------------------------------------------------------------
# flag/config plumbing

def _parse_vector(text, flag):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{flag} expects X,Y,Z — got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag} expects three numbers — got {text!r}") from None


def _parse_float(text, flag):
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{flag} expects a number — got {text!r}") from None


def _parse_range(text, flag, default_points=None):
    """START:STOP[:POINTS] -> (start, stop, points)."""
    parts = text.split(":")
    if len(parts) == 2 and default_points is not None:
        parts.append(str(default_points))
    if len(parts) != 3:
        raise UsageError(f"{flag} expects START:STOP:POINTS — got {text!r}")
    start = _parse_float(parts[0], flag)
    stop = _parse_float(parts[1], flag)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"{flag}: START and STOP must be finite, got {text!r}")
    try:
        points = int(parts[2])
    except ValueError:
        raise UsageError(f"{flag} POINTS must be an integer — got "
                         f"{parts[2]!r}") from None
    if start >= stop:
        raise UsageError(f"{flag}: START must be < STOP, got {text!r}")
    if not 2 <= points <= _MAX_POINTS:
        raise UsageError(f"{flag}: POINTS must be in [2, {_MAX_POINTS}], "
                         f"got {points}")
    return start, stop, points


def _read_config(path, allowed):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got "
                             f"{line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_flags(command, tokens):
    """Parse a subcommand's flags into a namespace (None where unset; the
    last of a repeated flag wins), then fill the unset ones from --config.
    The token after a flag is its value unless it starts with '--';
    --flag=VALUE takes any VALUE."""
    flags = [f for f, commands in _FLAGS.items() if command in commands]
    keys = {flag[2:].replace("-", "_") for flag in flags}
    args = dict.fromkeys([*keys, "config"])
    rest = iter(tokens)
    for tok in rest:
        flag, eq, value = tok.partition("=")
        if flag not in flags and flag != "--config":
            raise UsageError(f"unrecognized argument {tok!r}")
        value = value if eq else next(rest, None)
        if value is None or (not eq and value.startswith("--")):
            raise UsageError(f"{flag} expects a value")
        args[flag[2:].replace("-", "_")] = value
    if args["config"] is not None:
        for key, value in _read_config(args["config"], keys).items():
            if args[key] is None:
                args[key] = value
    return SimpleNamespace(**args)


def _resolve_medium(args) -> MediumChirality:
    n_left = args.n_left
    n_right = args.n_right
    n_bar = args.n_bar
    rotation = args.rotation
    if rotation is not None:
        if n_left is not None or n_right is not None:
            raise UsageError("--rotation is mutually exclusive with "
                             "--n-left/--n-right")
        mean = _parse_float(n_bar, "--n-bar") if n_bar is not None else 1.0
        return MediumChirality.from_mean_and_rotation(
            mean, _parse_float(rotation, "--rotation"))
    if n_bar is not None:
        if n_left is not None or n_right is not None:
            raise UsageError("give either --n-bar or the explicit "
                             "--n-left/--n-right pair, not both")
        mean = _parse_float(n_bar, "--n-bar")
        return MediumChirality(mean, mean)
    if (n_left is None) != (n_right is None):
        raise UsageError("--n-left and --n-right must be given together")
    if n_left is None:
        return MediumChirality(1.0, 1.0)
    return MediumChirality(_parse_float(n_left, "--n-left"),
                           _parse_float(n_right, "--n-right"))


def _resolve_vectors(args):
    given = {flag: getattr(args, flag) for flag in ("d1", "d2", "axis")}
    scenario = args.scenario
    if scenario is None:
        raise UsageError("--scenario is required "
                         f"(one of: {', '.join(SCENARIOS)}, custom)")
    if scenario == "custom":
        missing = [f"--{k}" for k, v in given.items() if v is None]
        if missing:
            raise UsageError("scenario=custom requires explicit vectors; "
                             f"missing {', '.join(missing)}")
        return tuple(_parse_vector(given[k], f"--{k}")
                     for k in ("d1", "d2", "axis"))
    if scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {scenario!r} "
                         f"(one of: {', '.join(SCENARIOS)}, custom)")
    extra = [f"--{k}" for k, v in given.items() if v is not None]
    if extra:
        raise UsageError(f"{', '.join(extra)} conflict with "
                         f"--scenario {scenario}; use --scenario custom")
    return SCENARIOS[scenario]


def _resolve_format(args):
    fmt = args.format or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {fmt!r}")
    return fmt


def parse_config(tokens) -> SweepRequest:
    """Resolve sweep flags (and an optional config file) into a SweepRequest.

    tokens are the arguments of the sweep subcommand, e.g.
    ["--scenario", "isotropic", "--x", "0.5:10:200"].
    """
    args = _parse_flags("sweep", tokens)
    d1, d2, axis = _resolve_vectors(args)
    medium = _resolve_medium(args)
    x_start, x_stop, n_points = _parse_range(args.x or _DEFAULT_X, "--x",
                                             default_points=200)
    if x_start <= 0.0:
        raise UsageError(f"--x START must be > 0, got {x_start}")
    time_sample = _parse_float(args.time, "--time") if args.time is not None else 1.0
    if time_sample < 0.0 or not math.isfinite(time_sample):
        raise UsageError(f"--time must be a finite non-negative number, "
                         f"got {time_sample}")
    cutoff = (_parse_float(args.lamb_cutoff, "--lamb-cutoff")
              if args.lamb_cutoff is not None else None)
    return SweepRequest(
        d1=d1, d2=d2, axis=axis, medium=medium,
        x_start=x_start, x_stop=x_stop, n_points=n_points,
        time_sample=time_sample, output_format=_resolve_format(args),
        lamb_cutoff=cutoff)


# ---------------------------------------------------------------------------
# output

def _emit_table(columns, fmt, out):
    """Write named columns of equal length, at least one row, as CSV or JSON.

    One row template per table, applied to every row with %: CSV rows are
    "%.15g" per value (>= 12 significant digits, locale independent) with
    -0.0 folded to 0; JSON is an indented list of one object per row with
    each value's shortest round-trip repr, byte-identical to
    json.dumps(rows, indent=2) plus a newline.  Column names are plain
    identifiers, written as they are.  The values are finite on every exit-0
    path; a non-finite one would be spelled nan/inf in both formats, not
    JSON's NaN/Infinity.
    """
    header = list(columns)
    values = [np.asarray(c, dtype=float) for c in columns.values()]
    if fmt == "csv":
        head, sep, tail = ",".join(header) + "\n", "\n", "\n"
        tmpl = ",".join(["%.15g"] * len(header))
        values = [v + 0.0 for v in values]
    else:
        head, sep, tail = "[\n", ",\n", "\n]\n"
        tmpl = "  {\n" + ",\n".join(f'    "{name}": %r'
                                    for name in header) + "\n  }"
    rows = zip(*(v.tolist() for v in values))
    out.write(head)
    out.write(sep.join(map(tmpl.__mod__, rows)))
    out.write(tail)


def _cmd_sweep(tokens, out) -> int:
    req = parse_config(tokens)
    _emit_table(run_sweep(req), req.output_format, out)
    return 0


def _cmd_dynamics(tokens, out) -> int:
    args = _parse_flags("dynamics", tokens)
    d1, d2, axis = _resolve_vectors(args)
    medium = _resolve_medium(args)
    if args.x is None:
        raise UsageError("dynamics requires --x SEPARATION (single number)")
    if ":" in args.x:
        raise UsageError("dynamics takes a single separation --x, "
                         "not a range")
    x = _parse_float(args.x, "--x")
    t0, t1, nt = _parse_range(args.time or _DEFAULT_TIME_GRID, "--time")
    if t0 < 0.0:
        raise UsageError(f"--time START must be >= 0, got {t0}")
    fmt = _resolve_format(args)

    g = geometry_factors(normalize_geometry(d1, d2, axis, x))
    a_l = collective.a_l_damping(medium)
    a_t = collective.a_t(x, medium, g)
    traj = dynamics.evolve(a_l, a_t, np.linspace(t0, t1, nt))
    _emit_table({"t": traj.times, "p1": traj.p1, "p2": traj.p2,
                 "p_plus": traj.p_plus, "p_minus": traj.p_minus,
                 "e_int": traj.e_int}, fmt, out)
    return 0


def _cmd_lamb(tokens, out) -> int:
    args = _parse_flags("lamb", tokens)
    medium = _resolve_medium(args)
    if args.lamb_cutoff is None:
        raise UsageError("lamb requires --lamb-cutoff LAMBDA")
    cutoff = LambCutoff(_parse_float(args.lamb_cutoff, "--lamb-cutoff"))
    value = collective.lamb_shift(medium, cutoff)
    _emit_table({"n_bar": [medium.n_bar],
                 "lambda_cutoff": [cutoff.lambda_cutoff],
                 "delta_lamb": [value]}, _resolve_format(args), out)
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "dynamics": _cmd_dynamics, "lamb": _cmd_lamb}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 0 if argv else 2
    command, tokens = argv[0], argv[1:]
    if command not in _COMMANDS:
        print(f"chidip: unknown command {command!r} "
              f"(expected one of: {', '.join(_COMMANDS)})", file=sys.stderr)
        return 2
    if "-h" in tokens or "--help" in tokens:
        flags = [f"  {f} VALUE" for f, on in _FLAGS.items() if command in on]
        print(f"usage: chidip {command} [FLAG VALUE | FLAG=VALUE]...",
              "flags:", *flags, "  --config PATH", sep="\n", file=sys.stderr)
        return 0
    try:
        return _COMMANDS[command](tokens, sys.stdout)
    except UsageError as exc:
        print(f"chidip {command}: {exc}", file=sys.stderr)
        return 2
    except ChidipError as exc:
        print(f"chidip {command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
