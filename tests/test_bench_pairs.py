"""tools/bench_pairs.py: the gain and worse verdicts and the per-pair change
of its summary, on synthetic runs, the order of its runs, the verdict lines
it prints, the digest of the code each side ran, the bytecode it clears
before the first pair, and what it writes when a run fails."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "items_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25},
           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def _run(rate, setup, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"items_per_s": {"value": rate},
                        "setup_s": {"value": setup}}}


def _runs(after_correct=True, after_failed=0):
    """Ten pairs in which AFTER is twice as fast and starts in half the
    time, far beyond BEFORE's spread."""
    before = [_run(100.0 + k, 1.0 + 0.01 * k) for k in range(10)]
    after = [_run(200.0 + k, 0.5 + 0.01 * k) for k in range(10)]
    after[3] = _run(203.0, 0.53, after_correct, after_failed)
    return {"before": before, "after": after}


def test_clean_speedup_is_a_gain():
    summary = bench_pairs.summarize(_runs(), METRICS)
    assert summary["correct"] == {"before": True, "after": True}
    assert summary["failed"] == {"before": 0, "after": 0}
    rate = summary["metrics"]["items_per_s"]
    assert rate["wins"] == 10 and rate["gain"]
    assert rate["before"]["median"] == 104.5
    assert rate["after"]["median"] == 204.5
    setup = summary["metrics"]["setup_s"]
    assert setup["wins"] == 10 and setup["gain"]
    assert not rate["worse"] and not setup["worse"]


def test_no_gain_from_an_incorrect_run():
    summary = bench_pairs.summarize(_runs(after_correct=False), METRICS)
    assert summary["correct"] == {"before": True, "after": False}
    for entry in summary["metrics"].values():
        assert entry["wins"] == 10 and not entry["gain"]


def test_no_gain_from_more_failed_requests():
    summary = bench_pairs.summarize(_runs(after_failed=1), METRICS)
    assert summary["failed"] == {"before": 0, "after": 1}
    for entry in summary["metrics"].values():
        assert entry["wins"] == 10 and not entry["gain"]


def test_thirty_percent_slower_is_worse():
    # AFTER serves 30 % fewer items a second and takes 30 % longer to
    # start: beyond the 25 % bound
    before = [_run(100.0 + k, 1.0 + 0.01 * k) for k in range(10)]
    after = [_run(0.7 * (100.0 + k), 1.3 * (1.0 + 0.01 * k))
             for k in range(10)]
    summary = bench_pairs.summarize({"before": before, "after": after},
                                    METRICS)
    for entry in summary["metrics"].values():
        assert entry["wins"] == 0 and not entry["gain"]
        assert entry["change"] < -0.25 and entry["worse"]
    # the same spread, 20 % slower, is within the bound
    after = [_run(0.8 * (100.0 + k), 1.2 * (1.0 + 0.01 * k))
             for k in range(10)]
    summary = bench_pairs.summarize({"before": before, "after": after},
                                    METRICS)
    assert not any(e["worse"] for e in summary["metrics"].values())


def test_spread_beyond_the_bound_is_unresolved():
    # BEFORE's quartiles 77.5 and 122.5 about a median of 100 span 45 % of it,
    # beyond the 25 % bound, so a 10 % change cannot be told from noise;
    # setup_s spreads 2 % and stays resolved
    before = [_run(rate, 1.0 + 0.002 * k)
              for k, rate in enumerate([40.0, 70.0, 70.0, 100.0, 100.0,
                                        100.0, 100.0, 130.0, 130.0, 160.0])]
    after = [_run(1.1 * r["metrics"]["items_per_s"]["value"], 1.0)
             for r in before]
    metrics = bench_pairs.summarize({"before": before, "after": after},
                                    METRICS)["metrics"]
    rate = metrics["items_per_s"]
    assert (rate["before"]["q1"], rate["before"]["q3"]) == (77.5, 122.5)
    assert rate["unresolved"] and not rate["worse"]
    assert not metrics["setup_s"]["unresolved"]
    # the same spread is resolved where every AFTER run beats every BEFORE
    # run, and one tie leaves it unresolved
    after = [_run(161.0 + k, 1.0) for k in range(10)]
    metrics = bench_pairs.summarize({"before": before, "after": after},
                                    METRICS)["metrics"]
    assert not metrics["items_per_s"]["unresolved"]
    after[0] = _run(160.0, 1.0)
    metrics = bench_pairs.summarize({"before": before, "after": after},
                                    METRICS)["metrics"]
    assert metrics["items_per_s"]["unresolved"]


def test_pair_change_is_the_median_change_within_a_pair():
    # the host drifts between pairs: BEFORE reads 100 to 400 items/s.  The
    # changes within the pairs are +10, +5, -25, +15 and +20 %, whose median
    # is +10 %, while the medians over all pairs, 200 and 210, differ by 5
    # %; setup_s, lower better, falls by 10 % in every pair but one, which
    # a 0.0 BEFORE run leaves out
    before = [_run(rate, setup) for rate, setup in
              ((100.0, 1.0), (200.0, 2.0), (400.0, 0.0), (100.0, 4.0),
               (200.0, 1.0))]
    after = [_run(rate, setup) for rate, setup in
             ((110.0, 0.9), (210.0, 1.8), (300.0, 0.5), (115.0, 3.6),
              (240.0, 0.9))]
    metrics = bench_pairs.summarize({"before": before, "after": after},
                                    METRICS)["metrics"]
    rate = metrics["items_per_s"]
    assert abs(rate["change"] - 0.05) < 1e-12
    assert abs(rate["pair_change"] - 0.10) < 1e-12
    assert rate["wins"] == 4
    assert abs(metrics["setup_s"]["pair_change"] - 0.10) < 1e-12
    # no pair left: null, printed as n/a
    zero = [_run(0.0, 0.0) for _ in range(3)]
    metrics = bench_pairs.summarize({"before": zero, "after": zero},
                                    METRICS)["metrics"]
    assert metrics["items_per_s"]["pair_change"] is None
    line = next(bench_pairs.report("verify", {"metrics": metrics}, 3))
    assert "change n/a, per-pair change n/a," in line


def _checkouts(tmp_path, monkeypatch, run_once):
    """BEFORE and AFTER directories under tmp_path, AFTER with a
    BENCHMARK.json of METRICS, the stub run_once in place and tmp_path as
    the current directory."""
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "after" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 25, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)


def test_pairs_interleave_workloads_and_alternate_sides(tmp_path,
                                                        monkeypatch):
    # pair k of every workload runs before pair k + 1 of any, in the order
    # given, and within pair k BEFORE runs first when k is even
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((workload, checkout.name))
        return _run(100.0, 1.0)

    _checkouts(tmp_path, monkeypatch, run_once)
    workloads = ["verify", "sweep", "dynamics"]
    assert bench_pairs.main([str(tmp_path / "before"),
                             str(tmp_path / "after"), "--workload",
                             *workloads, "--seed", "1", "--pairs", "3",
                             "--label", "stub"]) == 0
    assert calls == [(workload, side)
                     for order in (("before", "after"), ("after", "before"),
                                   ("before", "after"))
                     for workload in workloads for side in order]
    result = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert list(result["workloads"]) == workloads
    for entry in result["workloads"].values():
        assert {side: len(r) for side, r in entry["runs"].items()} == {
            "before": 3, "after": 3}


def test_failed_run_keeps_the_runs_collected_so_far(tmp_path, monkeypatch):
    # the fifth run (pair 1 of sweep, AFTER first) exits 3: the runs of
    # pair 0 of both workloads are written, none summarized, with the
    # failed run's record, and main returns 1
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((workload, checkout.name))
        if len(calls) == 5:
            stderr = "".join(f"line {i}\n" for i in range(30))
            raise subprocess.CalledProcessError(3, ["run.py"], stderr=stderr)
        return _run(100.0 + len(calls), 1.0)

    _checkouts(tmp_path, monkeypatch, run_once)
    code = bench_pairs.main([str(tmp_path / "before"), str(tmp_path / "after"),
                             "--workload", "sweep", "dynamics", "--seed", "1",
                             "--pairs", "4", "--label", "stub"])
    assert code == 1
    assert calls == [("sweep", "before"), ("sweep", "after"),
                     ("dynamics", "before"), ("dynamics", "after"),
                     ("sweep", "after")]
    result = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert result["workloads"] == {
        "sweep": {"runs": {"before": [_run(101.0, 1.0)],
                           "after": [_run(102.0, 1.0)]}},
        "dynamics": {"runs": {"before": [_run(103.0, 1.0)],
                              "after": [_run(104.0, 1.0)]}}}
    assert result["failed_run"] == {
        "side": "after", "workload": "sweep", "pair": 1, "returncode": 3,
        "stderr_tail": "\n".join(f"line {i}" for i in range(10, 30))}


def test_each_workload_reports_its_verdicts_on_stderr(tmp_path, monkeypatch,
                                                       capsys):
    # after the last pair, one stderr line per workload and end-to-end
    # metric gives both medians, the change, the per-pair change, the wins,
    # gain, worse and unresolved, and
    # the JSON keeps its layout.  AFTER serves twice the items and starts in
    # 1.4 times the time
    def run_once(checkout, workload, seed):
        fast = checkout.name == "after"
        return _run(200.0 if fast else 100.0, 1.4 if fast else 1.0)

    _checkouts(tmp_path, monkeypatch, run_once)
    code = bench_pairs.main([str(tmp_path / "before"), str(tmp_path / "after"),
                             "--workload", "sweep", "verify", "--seed", "1",
                             "--pairs", "4", "--label", "stub"])
    assert code == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if " pair " not in line]
    assert lines == [
        line
        for workload in ("sweep", "verify")
        for line in (
            f"{workload} items_per_s: median 100 -> 200, change +100.0%, "
            "per-pair change +100.0%, wins 4/4, gain True, worse False, "
            "unresolved False",
            f"{workload} setup_s: median 1 -> 1.4, change -40.0%, "
            "per-pair change -40.0%, wins 0/4, gain False, worse True, "
            "unresolved False")]
    result = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert set(result) == {"label", "seed", "pairs", "seconds", "host",
                           "sources", "workloads"}
    for workload in ("sweep", "verify"):
        entry = result["workloads"][workload]
        assert set(entry) == {"summary", "runs"}
        assert entry["summary"] == bench_pairs.summarize(entry["runs"],
                                                         METRICS)


def _digest(files):
    """The sha256 of a src/chidip holding files (name -> bytes), per the
    tool's docstring."""
    digest = hashlib.sha256()
    for name in sorted(files):
        for part in (f"src/chidip/{name}".encode(), files[name]):
            digest.update(b"%d:" % len(part) + part)
    return digest.hexdigest()


def test_sources_name_the_code_each_side_ran(tmp_path, monkeypatch):
    # each side's sources entry is the sha256 over its src/chidip/*.py, on
    # plain directories that are not git checkouts; other files, the order
    # the files were written in and the checkout's own path do not count
    files = {"__init__.py": b"", "specfun.py": b"I1 = 2\n",
             "collective.py": b"F1 = 1\n"}
    for side, order in zip(bench_pairs.SIDES, (sorted(files), list(files))):
        package = tmp_path / side / "src" / "chidip"
        package.mkdir(parents=True)
        for name in order:
            (package / name).write_bytes(files[name])
    before = tmp_path / "before"
    (before / "src" / "chidip" / "notes.txt").write_text("not code")
    (before / "src" / "chidip" / "sub").mkdir()
    (before / "src" / "chidip" / "sub" / "extra.py").write_text("x = 1")
    (before / "README.md").write_text("readme")
    (tmp_path / "after" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 25, "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed: _run(100.0, 1.0))
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path / "before"), str(tmp_path / "after"), "--workload",
            "sweep", "--seed", "1", "--pairs", "2", "--label", "stub"]

    def sources():
        assert bench_pairs.main(argv) == 0
        return json.loads((tmp_path / "BENCH_stub.json").read_text())[
            "sources"]

    assert sources() == {"before": _digest(files), "after": _digest(files)}
    # one changed byte in AFTER's code changes its digest alone
    files["collective.py"] = b"F1 = 2\n"
    (tmp_path / "after" / "src" / "chidip" / "collective.py").write_bytes(
        files["collective.py"])
    got = sources()
    assert got["after"] == _digest(files) != got["before"]


def test_bytecode_under_src_and_perfbench_goes_before_the_first_run(
        tmp_path, monkeypatch):
    # with PYTHONDONTWRITEBYTECODE=1 a side holding a __pycache__ imports
    # bytecode while the other compiles its sources in every set-up probe;
    # both sides' caches under src/ and perfbench/ are gone before any run,
    # and nothing else is touched
    seen = []

    def run_once(checkout, workload, seed):
        seen.append([c for c in caches if (tmp_path / c).exists()])
        return _run(100.0, 1.0)

    _checkouts(tmp_path, monkeypatch, run_once)
    caches = [Path(side, top, *sub, "__pycache__")
              for side in bench_pairs.SIDES
              for top, *sub in (("src", "chidip"), ("perfbench",))]
    kept = tmp_path / "before" / "tools" / "__pycache__"
    for cache in [tmp_path / c for c in caches] + [kept]:
        cache.mkdir(parents=True)
        (cache / "module.cpython-311.pyc").write_bytes(b"stale")
    (tmp_path / "after" / "src" / "chidip" / "cli.py").write_text("code")
    assert bench_pairs.main([str(tmp_path / "before"), str(tmp_path / "after"),
                             "--workload", "sweep", "--seed", "1", "--pairs",
                             "2", "--label", "stub"]) == 0
    assert seen == [[]] * 4
    assert (kept / "module.cpython-311.pyc").read_bytes() == b"stale"
    assert (tmp_path / "after" / "src" / "chidip" / "cli.py").read_text() \
        == "code"
