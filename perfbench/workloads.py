"""Seeded request streams for the three benchmark workloads.

Every request is a pure function of (workload, seed, index), so the same
seed always gives the same inputs.  A run takes a fixed number of requests
from the front of its workload's stream, the same number for every seed.
Properties that set a request's cost (grid size, output format, geometry
and medium kind, the share of malformed requests) follow fixed patterns or
golden-ratio sequences; the physics (geometry, medium, ranges) is drawn at
random from the seed.  That keeps the cost mix of a request set the same
from seed to seed while the inputs change.

Importing this module imports nothing heavier than the standard library,
so the set-up probe times the entry module, not the generator.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# restated from chidip.collective; the crossover ranges are built around it
Y_SERIES = 0.05

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0

# the scenario presets of the README, restated as the expected geometry
PRESETS = {
    "orthogonal-perpendicular": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "syntropic-perpendicular": ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    "isotropic": ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0)),
}

MALFORMED_EVERY = 10   # one malformed request in each block of ten


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on sys.path, or exit if it is absent.

    The benchmark measures the package of the checkout it lives in, never
    an installed copy.
    """
    if not (SRC / "chidip" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chidip package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    ``argv`` is a CLI command line (None for library-level verify cases);
    ``expect`` the exit codes the README allows for it; ``spec`` the
    physical inputs the correctness checks recompute from.
    """

    index: int
    argv: tuple | None
    items: int
    expect: tuple = (0,)
    spec: dict = field(default_factory=dict)

    @property
    def malformed(self) -> bool:
        return self.expect != (0,)


# ---------------------------------------------------------------------------
# shared draws

def _phase(seed: int, salt: str) -> float:
    return random.Random(f"phase:{salt}:{seed}").random()


def _weyl(seed: int, index: int, step: float = _GOLDEN, salt: str = "") -> float:
    """Low-discrepancy point in [0, 1): even coverage in every prefix."""
    return (_phase(seed, salt) + index * step) % 1.0


def _size(index: int, smallest: int, decades: float) -> int:
    """Grid size of valid request ``index``, log-uniform over ``decades`` from
    ``smallest``.  The sequence is the same for every seed: latency scales
    with size, so a seeded phase would move the median of a run's sizes and
    with it request_p50_s."""
    return round(smallest * 10 ** (decades * ((index * _GOLDEN) % 1.0)))


def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _perpendicular(rng, r):
    u = _cross(r, _unit(rng))
    norm = math.sqrt(sum(c * c for c in u))
    return [c / norm for c in u]


GEOMETRY_KINDS = ("generic", "coplanar", "orthogonal", "generic", "parallel",
                  "preset")
MEDIUM_KINDS = ("vacuum", "inactive", "pair", "rotation")


def _kinds(index):
    """Geometry and medium kind by position: they change how many digits
    the output rows carry, so every request set has the same mix."""
    return (GEOMETRY_KINDS[index % len(GEOMETRY_KINDS)],
            MEDIUM_KINDS[(index // len(GEOMETRY_KINDS)) % len(MEDIUM_KINDS)])


def _geometry(rng, kind):
    """(flags, d1, d2, axis) covering generic, c = 0 and |c| = 1 cases."""
    if kind == "preset":
        name = rng.choice(sorted(PRESETS))
        return ["--scenario", name], *PRESETS[name]
    r = _unit(rng)
    if kind == "generic":
        d1, d2 = _unit(rng), _unit(rng)
    elif kind == "parallel":                       # d1 = d2: c = 0
        d1 = _unit(rng)
        d2 = list(d1)
    else:
        u = _perpendicular(rng, r)
        if kind == "coplanar":                     # both in the (r, u) plane: c = 0
            al, be = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
            d1 = [math.cos(al) * a + math.sin(al) * b for a, b in zip(r, u)]
            d2 = [math.cos(be) * a + math.sin(be) * b for a, b in zip(r, u)]
        else:                                      # d1, d2, r orthonormal: |c| = 1
            v = _cross(r, u)
            d1, d2 = u, [rng.choice((1.0, -1.0)) * c for c in v]
    scale = rng.uniform(0.5, 2.0)                  # the CLI normalizes
    flags = ["--scenario", "custom"]
    for flag, vec in (("--d1", d1), ("--d2", [scale * c for c in d2]),
                      ("--axis", r)):
        flags.append(f"{flag}={','.join(repr(float(c)) for c in vec)}")
    return flags, tuple(d1), tuple(scale * c for c in d2), tuple(r)


def _medium(rng, kind):
    """(flags, n_left, n_right) over vacuum, inactive and active media."""
    if kind == "vacuum":
        return [], 1.0, 1.0
    n_bar = rng.uniform(0.5, 3.5)
    if kind == "inactive":
        return [f"--n-bar={n_bar!r}"], n_bar, n_bar
    rot = rng.uniform(-0.45, 0.45) * n_bar
    if kind == "rotation":
        return [f"--n-bar={n_bar!r}", f"--rotation={rot!r}"], n_bar + rot, n_bar - rot
    n_left, n_right = n_bar + rot, n_bar - rot
    return [f"--n-left={n_left!r}", f"--n-right={n_right!r}"], n_left, n_right


# ---------------------------------------------------------------------------
# malformed requests: each must exit with the README code and no traceback

_SWEEP_CTX = ("sweep", "--scenario", "isotropic", "--n-bar", "2")
_DYN_CTX = ("dynamics", "--scenario", "isotropic", "--n-bar", "2")

# the ROADMAP section 3 defects come first so that every run meets them
SWEEP_MALFORMED = (
    (_SWEEP_CTX + ("--x", "1e-300:1e-299:2"), (1,)),
    (_SWEEP_CTX + ("--x", "1:inf:50"), (2,)),
    (_SWEEP_CTX + ("--x", "nan:5:50"), (2,)),
    (_SWEEP_CTX + ("--x", "5:1:50"), (2,)),
    (_SWEEP_CTX + ("--x", "1:5:1"), (2,)),
    (_SWEEP_CTX + ("--x", "0:5:50"), (2,)),
    (_SWEEP_CTX + ("--time", "-1"), (2,)),
    (_SWEEP_CTX + ("--format", "xml"), (2,)),
    (_SWEEP_CTX + ("--bogus", "1"), (2,)),
    (_SWEEP_CTX + ("--lamb-cutoff", "0.5"), (1,)),
    (("sweep", "--scenario", "bogus"), (2,)),
    (("sweep", "--scenario", "custom", "--d1", "1,2", "--d2", "0,1,0",
      "--axis", "0,0,1"), (2,)),
    (("sweep", "--scenario", "custom", "--d1", "0,0,0", "--d2", "0,1,0",
      "--axis", "0,0,1"), (1,)),
    (("sweep", "--scenario", "isotropic", "--n-left", "-1", "--n-right",
      "2"), (1,)),
)

DYNAMICS_MALFORMED = (
    (_DYN_CTX + ("--x", "2", "--time", "0:nan:3"), (2,)),
    (_DYN_CTX + ("--x", "2", "--time", "0:inf:3"), (2,)),
    (_DYN_CTX + ("--x", "2", "--time", "5:1:10"), (2,)),
    (_DYN_CTX + ("--x", "2", "--time", "-1:2:10"), (2,)),
    (_DYN_CTX + ("--x", "2", "--time", "0:1:1"), (2,)),
    (_DYN_CTX + ("--x", "1:2:3"), (2,)),
    (_DYN_CTX, (2,)),
    (_DYN_CTX + ("--x", "0"), (1,)),
    (("dynamics", "--scenario", "isotropic", "--n-bar", "2", "--rotation",
      "5", "--x", "2"), (1,)),
    (("dynamics", "--scenario", "isotropic", "--n-bar", "0", "--x", "2"), (1,)),
)


def _slot(seed: int, block: int) -> int:
    """The seeded position of a block's malformed request (never the
    block's first)."""
    return 1 + random.Random(f"slot:{seed}:{block}").randrange(
        MALFORMED_EVERY - 1)


def _malformed_slot(seed: int, index: int, kinds, n_defects):
    """The malformed kind for this index, or None for a valid request.

    One seeded position in each block of ten; blocks take the kinds in
    order, the first ``n_defects`` (the known defects) first and the rest
    shuffled.
    """
    block, pos = divmod(index, MALFORMED_EVERY)
    if pos != _slot(seed, block):
        return None
    rest = list(range(n_defects, len(kinds)))
    random.Random(f"order:{seed}").shuffle(rest)
    return kinds[(list(range(n_defects)) + rest)[block % len(kinds)]]


def _ordinal(seed: int, index: int) -> int:
    """A valid request's position among the valid ones.  What sets its cost
    follows the ordinal, not the index, so that a request set holds the
    same sizes and kinds for every seed wherever its malformed requests
    fall."""
    block, pos = divmod(index, MALFORMED_EVERY)
    return index - block - (pos > _slot(seed, block))


# ---------------------------------------------------------------------------
# the three workloads

def sweep_request(seed: int, index: int) -> Request:
    slot = _malformed_slot(seed, index, SWEEP_MALFORMED, 3)
    if slot is not None:
        return Request(index, slot[0], 0, slot[1])
    k = _ordinal(seed, index)
    rng = random.Random(f"sweep:{seed}:{index}")
    geo_kind, med_kind = _kinds(k)
    geo_flags, d1, d2, axis = _geometry(rng, geo_kind)
    med_flags, n_left, n_right = _medium(rng, med_kind)
    n_min, n_max = min(n_left, n_right), max(n_left, n_right)
    # request 0 is the largest JSON request, so every run reaches the same
    # memory high-water mark
    points = 4000 if k == 0 else _size(k, 1000, math.log10(4))
    if k % 8 == 5:         # dense grid across the series switch
        x_start = rng.uniform(0.2, 0.8) * Y_SERIES / n_max
        x_stop = rng.uniform(3.0, 6.0) * Y_SERIES / n_min
    else:                      # from below the switch to y in the hundreds
        x_start = rng.uniform(0.1, 0.9) * Y_SERIES / n_max
        x_stop = rng.uniform(100.0, 400.0) / n_min
    fmt = "json" if k % 2 == 0 else "csv"
    cutoff = 10 ** rng.uniform(2, 6) if (k // 2) % 2 == 0 else None
    r = rng.random()
    time_sample = None if r < 0.2 else 0.0 if r < 0.3 else rng.uniform(0.1, 3.0)
    argv = ["sweep", *geo_flags, *med_flags,
            "--x", f"{x_start!r}:{x_stop!r}:{points}", "--format", fmt]
    if time_sample is not None:
        argv += ["--time", repr(time_sample)]
    if cutoff is not None:
        argv += ["--lamb-cutoff", repr(cutoff)]
    spec = dict(d1=d1, d2=d2, axis=axis, n_left=n_left, n_right=n_right,
                x_start=x_start, x_stop=x_stop, points=points, fmt=fmt,
                time=1.0 if time_sample is None else time_sample,
                lamb_cutoff=cutoff)
    return Request(index, tuple(argv), points, (0,), spec)


def dynamics_request(seed: int, index: int) -> Request:
    slot = _malformed_slot(seed, index, DYNAMICS_MALFORMED, 2)
    if slot is not None:
        return Request(index, slot[0], 0, slot[1])
    k = _ordinal(seed, index)
    rng = random.Random(f"dynamics:{seed}:{index}")
    geo_kind, med_kind = _kinds(k)
    geo_flags, d1, d2, axis = _geometry(rng, geo_kind)
    med_flags, n_left, n_right = _medium(rng, med_kind)
    n_bar = 0.5 * (n_left + n_right)
    if rng.random() < 0.2:     # x across the series switch of either channel
        x = rng.uniform(0.3, 3.0) * Y_SERIES / max(n_left, n_right)
    else:
        x = 10 ** rng.uniform(-1.3, 1.3)
    samples = 100_000 if k == 0 else _size(k, 10_000, 1.0)
    t_stop = rng.uniform(2.0, 30.0) / n_bar
    fmt = "json" if k % 4 == 0 else "csv"
    argv = ["dynamics", *geo_flags, *med_flags, "--x", repr(x),
            "--time", f"0:{t_stop!r}:{samples}", "--format", fmt]
    spec = dict(d1=d1, d2=d2, axis=axis, n_left=n_left, n_right=n_right,
                x=x, t_stop=t_stop, samples=samples, fmt=fmt)
    return Request(index, tuple(argv), samples, (0,), spec)


def verify_request(seed: int, index: int) -> Request:
    rng = random.Random(f"verify:{seed}:{index}")
    _, d1, d2, axis = _geometry(rng, _kinds(index)[0])
    # x and the indices set the oracle's cost, so they follow the even
    # sequence, and every third medium is active; request 0 is the costliest
    # case (largest n*x) for a fixed memory peak
    if index == 0:
        x, n_bar, rot = 6.0, 2.5, 0.3
    else:
        x = 0.5 + 5.5 * _weyl(seed, index, salt="x")
        n_bar = 1.0 + 1.5 * _weyl(seed, index, _SILVER, salt="n")
        rot = 0.0 if index % 3 else 0.3 * (2 * _weyl(seed, index, salt="r") - 1)
    spec = dict(d1=d1, d2=d2, axis=axis, x=x,
                n_left=n_bar + rot * n_bar, n_right=n_bar - rot * n_bar)
    return Request(index, None, 1, (0,), spec)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str              # module every request of this workload needs
    make: object            # (seed, index) -> Request
    tail_percentile: int    # leaves ten samples of one pass beyond it
    requests: int           # the request set of a run, built in set-up


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep", "chidip.cli", sweep_request, 80, 50),
        Workload("dynamics", "chidip.cli", dynamics_request, 75, 40),
        Workload("verify", "chidip.oracle", verify_request, 75, 100),
    )
}

# one small request per workload that runs before timing starts
WARMUP = {
    "sweep": Request(-1, ("sweep", "--scenario", "isotropic", "--x",
                          "0.01:10:50"), 50),
    "dynamics": Request(-1, ("dynamics", "--scenario", "isotropic", "--x",
                             "1", "--time", "0:1:50"), 50),
    "verify": Request(-1, None, 1, (0,), dict(
        d1=(1.0, 0.0, 0.0), d2=(1.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
        x=1.0, n_left=1.0, n_right=1.0)),
}


def build(workload: str, seed: int):
    """A workload's request set: the front of its stream."""
    w = WORKLOADS[workload]
    return [w.make(seed, i) for i in range(w.requests)]
