"""Layered benchmark for chidip.

    python3 perfbench/run.py --workload sweep|dynamics|verify|all \\
        --seed N --seconds S --trace 0|1

One process is a single closed-loop client: it sends the next request only
when the last one has returned.  CLI requests run in-process through
``chidip.cli.main`` with stdout and stderr captured; verify cases call the
library.  Every request is checked outside its timed interval (checks.py).

Each workload has a fixed request set per seed.  ``--trace 0`` makes whole
passes over it for about ``--seconds`` of request time and reports the
end-to-end metrics.  ``--trace 1`` runs the set once, each request plain
and with every public chidip function wrapped in a span (tracing.py), and
reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the lines above it are a
readable report.  See NOTES.md for the workloads and the baseline.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:        # before numpy is imported, here or in a probe
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import TRACED, Tracer, fill_unreached, reduce_spans
from workloads import ROOT, SRC, WARMUP, WORKLOADS, build, use_checkout_source

HERE = Path(__file__).resolve().parent
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
MIN_TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units():
    units = {}
    for layer, functions in TRACED.items():
        for fname in functions:
            units[f"{layer}.{fname}.calls"] = "count"
            units[f"{layer}.{fname}.self_s"] = "s"
        units.update({
            "cli": {"cli.self_s": "s", "cli.bytes_out": "bytes"},
            "collective": {"collective.points": "count"},
            "dynamics": {"dynamics.samples": "count",
                         "dynamics.ns_per_sample": "ns"},
        }.get(layer, {}))
    units["trace.overhead_frac"] = "fraction"
    return units


@dataclass
class Outcome:
    elapsed: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    warnings: tuple = ()
    error: str | None = None
    value: tuple | None = None


@dataclass
class Result:
    request: object
    problems: list


# ---------------------------------------------------------------------------
# one request

def _verify_case(spec):
    import chidip.collective as collective
    import chidip.geometry as geometry
    import chidip.oracle as oracle
    x = spec["x"]
    geo = geometry.normalize_geometry(spec["d1"], spec["d2"], spec["axis"], x)
    inv = geometry.geometry_factors(geo)
    medium = collective.MediumChirality(spec["n_left"], spec["n_right"])
    return (collective.f1(x, medium, inv), oracle.f1_oracle(x, medium, geo),
            collective.f2(x, medium, inv), oracle.f2_oracle(x, medium, geo))


def execute(req, cli_main=None) -> Outcome:
    """Run one request and time it; every warning is recorded, not only the
    first per location, and any exception escaping chidip is caught."""
    if cli_main is None and req.argv is not None:
        cli_main = sys.modules["chidip.cli"].main    # looked up per call
    out, err = io.StringIO(), io.StringIO()
    rc = value = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if req.argv is None:
                value = _verify_case(req.spec)
            else:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli_main(list(req.argv))
        except Exception as exc:     # the request failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return Outcome(elapsed, rc, out.getvalue(), err.getvalue(),
                   tuple(f"{w.category.__name__}: {w.message}" for w in caught),
                   error, value)


# ---------------------------------------------------------------------------
# set-up: fresh interpreters importing the entry module and building inputs

def probe_setup(workload: str, seed: int) -> float:
    """One fresh interpreter's time to start, import the entry module and
    build the inputs."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed),
         repr(start)], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two kinds of run

def _fingerprint(outcome) -> bytes:
    """A digest of everything a request returned, so that a repeat can be
    compared with the checked first execution without keeping its output."""
    return hashlib.blake2b(repr((
        outcome.rc, outcome.stdout, outcome.stderr, outcome.warnings,
        outcome.error, outcome.value)).encode()).digest()


def run_plain(workload, seed, seconds, deadline):
    """Closed-loop passes over the request set: as many whole passes as
    come nearest to ``seconds`` of request time, at least one.

    Whole passes weigh every request alike, so the latency distribution
    does not depend on where a run happens to stop.  The first execution
    of a request is checked (checks.py); a later one must return exactly
    the same.  So ``attempted`` and ``failed`` count distinct requests and
    do not depend on how many passes the host's speed allows.  The set-up
    probes are spread evenly over the request time, so that their median
    meets the same host speed as the requests do.  Returns one result per
    request, the latency and request of every execution, and the set-up
    times.
    """
    requests = build(workload, seed)
    results, digests, executions, setup = [], [], [], []
    spent, n, passes = 0.0, 0, 1
    while n < passes * len(requests):
        if len(setup) < SETUP_PROBES and \
                spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe_setup(workload, seed))
        req = requests[n % len(requests)]
        outcome = execute(req)
        spent += outcome.elapsed
        executions.append((outcome.elapsed, req))
        if n < len(requests):
            results.append(Result(req, checks.check(workload, req, outcome)))
            digests.append(_fingerprint(outcome))
        elif _fingerprint(outcome) != digests[req.index]:
            problems = results[req.index].problems
            if "a repeat returned another output" not in problems:
                problems.append("a repeat returned another output")
        n += 1
        if n == len(requests):
            passes = max(1, round(seconds / spent))
        if n % len(requests) == 0 and time.monotonic() > deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(workload, seed))
    return results, executions, setup


def run_traced(workload, seed, deadline):
    """The request set once, each request plain and traced (alternating
    which goes first); returns results, per-layer metrics, the names of
    those taken from the probe, and the trace file."""
    tracer = Tracer()
    requests = build(workload, seed)
    # request 0 is the largest: a discarded run leaves the allocator warm
    # for both sides of every pair
    execute(requests[0])
    results, plain_s, traced_s, bytes_out = [], 0.0, 0.0, 0
    for req in requests:
        if results and time.monotonic() > deadline:
            break
        if req.index % 2:
            plain = execute(req)
        tracer.request_id = req.index
        tracer.install()
        try:
            traced = execute(req)
        finally:
            tracer.uninstall()
        if not req.index % 2:
            plain = execute(req)
        problems = checks.check(workload, req, traced)
        if (plain.rc, plain.stdout, plain.value) != \
                (traced.rc, traced.stdout, traced.value):
            problems.append("traced and plain outputs differ")
        results.append(Result(req, problems))
        plain_s += plain.elapsed
        traced_s += traced.elapsed
        bytes_out += len(traced.stdout)
    # a probe, traced apart as request -1: the small warm-up requests of all
    # workloads.  A function this workload never reaches reports the probe's
    # figures, so that it has a measured time; the report marks them.
    tracer.request_id = -1
    probe_bytes = 0
    tracer.install()
    try:
        for req in WARMUP.values():
            probe_bytes += len(execute(req).stdout)
    finally:
        tracer.uninstall()
    path = TRACE_DIR / f"trace-{workload}-{seed}.npz"
    tracer.write(path)
    spans = tracer.spans()
    own = reduce_spans(tracer.names, spans, spans["request"] >= 0)
    own["cli.bytes_out"] = bytes_out
    probe = reduce_spans(tracer.names, spans, spans["request"] < 0)
    probe["cli.bytes_out"] = probe_bytes
    metrics, probed = fill_unreached(own, probe)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return results, metrics, probed, path


# ---------------------------------------------------------------------------
# metrics and report

def tail(latencies, percentile):
    """The workload's fixed percentile, lowered only when fewer than ten
    samples lie beyond it; returns (value, percentile used, beyond)."""
    n = len(latencies)
    if n <= MIN_TAIL_SAMPLES:
        return max(latencies), 100, 0
    p = min(percentile, math.floor(100 * (n - MIN_TAIL_SAMPLES) / n))
    value = statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    return value, p, sum(1 for t in latencies if t > value)


def summarize(workload, results, executions, setup, lines):
    latencies = [elapsed for elapsed, _ in executions]
    passed = {r.request.index for r in results if not r.problems}
    items = sum(req.items for _, req in executions if req.index in passed)
    failed = sum(1 for r in results if r.problems)
    p50 = statistics.median(latencies)
    tail_s, p, beyond = tail(latencies, WORKLOADS[workload].tail_percentile)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": items / sum(latencies),
        "request_p50_s": p50,
        "request_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
    }
    n, passes = len(executions), len(executions) // len(results)
    lines += [
        f"  setup_s         {metrics['setup_s']:.4f} s    median of {len(setup)}"
        f" fresh interpreters ({min(setup):.3f}-{max(setup):.3f})",
        f"  items_per_s     {metrics['items_per_s']:.2f} 1/s   {items} items in "
        f"{sum(latencies):.2f} s of request time",
        f"  request_p50_s   {p50:.4f} s    n={n}",
        f"  request_tail_s  {tail_s:.4f} s    p{p}, n={n}, {beyond} beyond",
        f"  failed_frac     {failed / len(results):.4f}      {failed} of "
        f"{len(results)} requests, {n} executions in {passes} passes",
        f"  peak_rss_mb     {rss_mb:.1f} MB",
    ]
    return metrics


def report(workload, seed, trace, results, metrics, units, lines):
    failures = [r for r in results if r.problems]
    valid_failures = [r for r in failures if not r.request.malformed]
    if failures:
        lines.append("  failed requests:")
        for r in failures:
            what = " ".join(r.request.argv) if r.request.argv else \
                f"verify case {r.request.spec}"
            lines.append(f"    #{r.request.index} {what}: "
                         f"{'; '.join(r.problems)}")
    print(f"perfbench {workload} seed={seed} trace={trace} nproc={NPROC}, "
          f"library thread pools capped at {NPROC}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not valid_failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0

    use_checkout_source()
    # stop in time to exit within 180 s whatever the checks cost
    deadline = time.monotonic() + min(6 * args.seconds, 120.0)
    lines = []
    if args.trace:
        importlib.import_module(WORKLOADS[args.workload].entry)
        results, metrics, probed, path = run_traced(args.workload, args.seed,
                                                    deadline)
        units = _per_layer_units()
        lines.append(f"  {len(results)} requests traced; spans in "
                     f"{path.relative_to(ROOT)}; (probe) marks a function "
                     f"{args.workload} never reaches, measured on the "
                     f"warm-up requests instead")
        lines += [f"  {name:<38} {metrics[name]:.6g} {unit}"
                  f"{'  (probe)' if name in probed else ''}"
                  for name, unit in units.items()]
    else:
        importlib.import_module(WORKLOADS[args.workload].entry)
        execute(WARMUP[args.workload])
        results, executions, setup = run_plain(args.workload, args.seed,
                                               args.seconds, deadline)
        metrics = summarize(args.workload, results, executions, setup, lines)
        units = END_TO_END
    report(args.workload, args.seed, args.trace, results, metrics, units, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
