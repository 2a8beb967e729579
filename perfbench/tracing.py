"""Span tracing of chidip's public functions, installed from outside.

Each traced function is replaced, wherever a chidip module binds it (its
home module and every ``from .x import y`` site), by a wrapper that records
a span: name, start, end, parent span and request id.  Spans stay in flat
in-memory arrays until the run ends; then they are written out and reduced
to per-layer metrics.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> public functions wrapped; ``errors`` does no work
TRACED = {
    "cli": ("main", "parse_config"),
    "geometry": ("normalize_geometry", "geometry_factors"),
    "collective": ("collective_spectrum", "f1", "f2", "a_t"),
    "specfun": ("aux_i1", "aux_i2"),
    "dynamics": ("evolve",),
    "oracle": ("f1_oracle", "f2_oracle"),
}


def _x_size(args, kwargs):
    return np.size(args[0] if args else kwargs["x"])


def _times_size(args, kwargs):
    return np.size(args[2] if len(args) > 2 else kwargs["times"])


# the work a span does, as a count: x values for the collective layer,
# time samples for evolve
WORK = {"collective": _x_size, "dynamics.evolve": _times_size}


class Tracer:
    """Span store for one run; ``request_id`` is set by the caller."""

    def __init__(self):
        self.names: list[str] = []
        self.request_id = -1
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._request = array("l")
        self._work = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn, work=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        start, end, stack = self._start, self._end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self._name.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            self._request.append(self.request_id)
            self._work.append(work(args, kwargs) if work else 0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Patch every binding of every traced function in loaded chidip
        modules; ``uninstall`` restores them."""
        for layer in TRACED:
            importlib.import_module(f"chidip.{layer}")
        modules = [m for name, m in sys.modules.items()
                   if name == "chidip" or name.startswith("chidip.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"chidip.{layer}"]
            for fname in functions:
                name = f"{layer}.{fname}"
                original = getattr(home, fname)
                wrapper = self.wrap(name, original,
                                    WORK.get(name) or WORK.get(layer))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def spans(self):
        """The recorded spans as numpy arrays."""
        return dict(name=np.frombuffer(self._name, dtype=np.int32).copy(),
                    start=np.array(self._start), end=np.array(self._end),
                    parent=np.array(self._parent, dtype=np.int64),
                    request=np.array(self._request, dtype=np.int64),
                    work=np.array(self._work))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def reduce_spans(names, spans, keep=None):
    """Per-function calls and self time, and the per-layer counts, for every
    traced function over the spans selected by the mask ``keep`` (all by
    default); zero where no selected span ran."""
    name, parent, work = spans["name"], spans["parent"], spans["work"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    if keep is not None:             # a span left out matches no function
        name = np.where(keep, name, -1)

    def spans_of(fname):
        return name == (names.index(fname) if fname in names else -1)

    out = {}
    for layer, functions in TRACED.items():
        for fname in functions:
            mask = spans_of(f"{layer}.{fname}")
            out[f"{layer}.{fname}.calls"] = int(mask.sum())
            out[f"{layer}.{fname}.self_s"] = float(self_time[mask].sum())
    out["cli.self_s"] = out["cli.main.self_s"] + out["cli.parse_config.self_s"]

    layer_of = np.array([n.split(".")[0] for n in names] + [""])
    is_collective = layer_of[name] == "collective"
    outermost = ~has_parent
    outermost[has_parent] = ~is_collective[parent[has_parent]]
    out["collective.points"] = int(work[is_collective & outermost].sum())

    evolve = spans_of("dynamics.evolve")
    samples = int(work[evolve].sum())
    out["dynamics.samples"] = samples
    out["dynamics.ns_per_sample"] = (1e9 * float(dur[evolve].sum()) / samples
                                     if samples else 0.0)
    return out


# the traced functions through which each derived metric is reached
_DERIVED_FROM = {
    "cli.self_s": ("cli.main",),
    "cli.bytes_out": ("cli.main",),
    "collective.points": tuple(f"collective.{f}" for f in TRACED["collective"]),
    "dynamics.samples": ("dynamics.evolve",),
    "dynamics.ns_per_sample": ("dynamics.evolve",),
}


def fill_unreached(own, probe):
    """``own``, with every metric of a function that the workload's own
    requests never reached taken from ``probe`` instead.

    Returns the merged metrics and the names taken from the probe.
    """
    sources = dict(_DERIVED_FROM)
    for layer, functions in TRACED.items():
        for fname in functions:
            name = f"{layer}.{fname}"
            sources[f"{name}.calls"] = sources[f"{name}.self_s"] = (name,)
    merged, probed = dict(own), []
    for metric, functions in sources.items():
        if not any(own[f"{f}.calls"] for f in functions):
            merged[metric] = probe[metric]
            probed.append(metric)
    return merged, probed
