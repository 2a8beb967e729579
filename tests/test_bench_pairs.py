"""tools/bench_pairs.py: the gain and worse verdicts of its summary, on
synthetic runs."""

import importlib.util
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
