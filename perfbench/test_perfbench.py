"""Tests of the benchmark itself: failures are counted, names match.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

workloads.use_checkout_source()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import chidip.cli  # noqa: E402
import chidip.geometry  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _valid(workload, fmt, seed=7):
    for i in range(1, 100):
        req = workloads.WORKLOADS[workload].make(seed, i)
        if not req.malformed and req.spec["fmt"] == fmt:
            return req
    raise AssertionError("no valid request found")


@pytest.fixture(scope="module")
def sweep_csv():
    req = _valid("sweep", "csv")
    return req, run.execute(req)


@pytest.fixture(scope="module")
def dynamics_csv():
    req = replace(_valid("dynamics", "csv"), items=200)
    req = replace(req, spec=dict(req.spec, samples=200))
    argv = list(req.argv)
    i = argv.index("--time") + 1
    argv[i] = argv[i].rsplit(":", 1)[0] + ":200"
    req = replace(req, argv=tuple(argv))
    return req, run.execute(req)


def _corrupt(stdout, row, column):
    lines = stdout.splitlines(keepends=True)
    fields = lines[row + 1].rstrip("\n").split(",")
    v = float(fields[column])
    fields[column] = repr(v + 1e-6 * (1 + abs(v)))
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def test_valid_requests_pass(sweep_csv, dynamics_csv):
    for workload, (req, outcome) in (("sweep", sweep_csv),
                                     ("dynamics", dynamics_csv)):
        assert checks.check(workload, req, outcome) == []
    req = _valid("sweep", "json")
    assert checks.check("sweep", req, run.execute(req)) == []


@pytest.mark.parametrize("column", range(len(checks.SWEEP_COLUMNS)))
def test_corrupted_sweep_row_is_failed(sweep_csv, column):
    req, outcome = sweep_csv
    row = 2 * req.items // 3           # away from the mpmath-sampled rows
    bad = replace(outcome, stdout=_corrupt(outcome.stdout, row, column))
    assert checks.check("sweep", req, bad)


@pytest.mark.parametrize("column", range(len(checks.DYNAMICS_COLUMNS)))
def test_corrupted_dynamics_row_is_failed(dynamics_csv, column):
    req, outcome = dynamics_csv
    bad = replace(outcome, stdout=_corrupt(outcome.stdout, 77, column))
    assert checks.check("dynamics", req, bad)


def test_dropped_row_is_failed(sweep_csv):
    req, outcome = sweep_csv
    lines = outcome.stdout.splitlines(keepends=True)
    bad = replace(outcome, stdout="".join(lines[:-1]))
    assert checks.check("sweep", req, bad)


def test_raising_request_is_failed(sweep_csv):
    req, _ = sweep_csv

    def crash(argv):
        raise ZeroDivisionError("float division by zero")

    outcome = run.execute(req, crash)
    assert outcome.error.startswith("ZeroDivisionError")
    assert checks.check("sweep", req, outcome)


def test_traceback_on_stderr_is_failed():
    req = workloads.Request(0, ("sweep", "--x", "5:1:3"), 0, (2,))

    def noisy(argv):
        print("Traceback (most recent call last):", file=sys.stderr)
        print("chidip sweep: bad range", file=sys.stderr)
        return 2

    problems = checks.check("sweep", req, run.execute(req, noisy))
    assert problems == ["traceback on stderr"]


def test_every_leaked_warning_is_recorded(sweep_csv):
    req, _ = sweep_csv

    def leaky(argv):
        for _ in range(2):       # one code location, warned twice
            warnings.warn("invalid value encountered", RuntimeWarning)
        return chidip.cli.main(argv)

    for _ in range(2):           # and again in the next request
        outcome = run.execute(req, leaky)
        assert len(outcome.warnings) == 2
        assert checks.check("sweep", req, outcome)


def test_malformed_request_with_right_exit_code_passes():
    req = workloads.Request(0, ("sweep", "--scenario", "bogus"), 0, (2,))
    assert checks.check("sweep", req, run.execute(req)) == []


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build(name, 3) != workloads.build(name, 4)
    # every request set holds the known defect inputs
    for name, kinds, n in (("sweep", workloads.SWEEP_MALFORMED, 3),
                           ("dynamics", workloads.DYNAMICS_MALFORMED, 2)):
        argvs = {r.argv for r in workloads.build(name, 5)}
        assert all(kind[0] in argvs for kind in kinds[:n])


def test_request_sets_hold_the_same_cost_mix_for_every_seed():
    for name in workloads.WORKLOADS:
        def mix(seed):
            return sorted((r.items, r.malformed, r.spec.get("fmt"))
                          for r in workloads.build(name, seed))
        assert mix(1) == mix(2) == mix(3)


def test_failures_count_requests_not_passes(monkeypatch):
    seen = []

    def fake_execute(req):              # request 1 changes on its repeat
        seen.append(req.index)
        f2 = 0.5 if req.index == 1 and seen.count(1) > 1 else 0.25
        return run.Outcome(0.01, value=(1.0, 1.0, f2, 0.25))

    monkeypatch.setattr(run, "execute", fake_execute)
    monkeypatch.setattr(run, "probe_setup", lambda workload, seed: 0.5)
    monkeypatch.setitem(workloads.WORKLOADS, "verify", replace(
        workloads.WORKLOADS["verify"], requests=3))
    results, executions, _ = run.run_plain("verify", 1, 0.1,
                                           time.monotonic() + 60)
    assert len(executions) == 9          # three whole passes
    assert [bool(r.problems) for r in results] == [False, True, False]
    assert results[1].problems == ["a repeat returned another output"]


def test_self_time_partitions_span_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("specfun.aux_i1", lambda u: sum(range(1000)))
    outer = tracer.wrap("collective.f1",
                        lambda x: inner(x) + inner(x), tracing._x_size)
    outer(2.0)
    spans = tracer.spans()
    metrics = tracing.reduce_spans(tracer.names, spans)
    total = float(spans["end"][0] - spans["start"][0])
    assert metrics["collective.f1.calls"] == 1
    assert metrics["specfun.aux_i1.calls"] == 2
    assert metrics["collective.f1.self_s"] + metrics["specfun.aux_i1.self_s"] \
        == pytest.approx(total, rel=1e-9)


def test_unreached_functions_alone_come_from_the_probe():
    tracer = tracing.Tracer()
    f1 = tracer.wrap("collective.f1", lambda x: x, tracing._x_size)
    oracle = tracer.wrap("oracle.f1_oracle", lambda x: x)
    tracer.request_id = 0
    f1(2.0)
    tracer.request_id = -1                 # the probe reaches both
    f1(2.0)
    oracle(2.0)
    spans = tracer.spans()
    own = tracing.reduce_spans(tracer.names, spans, spans["request"] >= 0)
    probe = tracing.reduce_spans(tracer.names, spans, spans["request"] < 0)
    metrics, probed = tracing.fill_unreached(own, probe)
    assert metrics["collective.f1.calls"] == 1
    assert metrics["collective.points"] == 1
    assert metrics["oracle.f1_oracle.calls"] == 1
    assert "oracle.f1_oracle.self_s" in probed
    assert "collective.f1.self_s" not in probed
    assert "collective.points" not in probed


def test_install_patches_lookup_sites_and_restores_them():
    original = chidip.geometry.geometry_factors
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chidip.cli.geometry_factors is not original
        assert chidip.cli.geometry_factors is chidip.geometry.geometry_factors
    finally:
        tracer.uninstall()
    assert chidip.cli.geometry_factors is original


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        run._per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(monkeypatch, trace):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "verify", replace(
        workloads.WORKLOADS["verify"], requests=2))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "verify", "--seed", "1", "--seconds",
                         "0.2", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    assert result["correct"] and result["attempted"] >= 1
