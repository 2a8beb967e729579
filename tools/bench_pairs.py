"""Paired before/after runs of the benchmark, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py BEFORE AFTER --workload sweep [dynamics ...] \\
        --seed N --pairs 10 --label NAME

BEFORE and AFTER are two checkout directories.  Each side runs its own
perfbench/run.py, unchanged and at its default run length, which measures
the src/ next to it.  Pair k of every workload runs before pair k + 1 of
any, so that load lasting several pairs falls on all workloads alike
instead of on one.  Within pair k, BEFORE runs first when k is even and
AFTER first when k is odd, so that neither side always meets a warmer or
cooler machine.  Before the first pair, the ``__pycache__`` directories
under each side's src/ and perfbench/ are removed, so that both sides
compile their sources alike instead of one importing bytecode left by an
earlier test run.

BENCH_<label>.json, written to the current directory, holds per workload
every run's result line, whether each side's runs were all ``correct``
and the requests each side ``failed`` in total, and, per end-to-end
metric of BENCHMARK.json: each side's median and quartiles, the relative
change of the median (positive = better), ``pair_change``, the median over
pairs of the relative change within each pair (positive = better; pairs
whose BEFORE run reads 0 are left out, and it is null when no pair is
left), and the pairs AFTER won (ties count for neither).  Host speed that
drifts from pair to pair moves both runs of a pair alike, so
``pair_change`` shows a change the medians over all pairs can hide.
``gain`` is true when every run of both sides was correct, AFTER failed
no more requests than BEFORE, AFTER won at least nine tenths of the pairs
and the medians differ by more than the distance between BEFORE's
quartiles.  ``worse`` is true when the change of the
median is below minus the metric's ``bound`` in BENCHMARK.json.
``unresolved`` is true when BEFORE's spread, the distance between its
quartiles over |median|, exceeds that bound, unless every AFTER run beats
every BEFORE run: such a change cannot be told from the noise.
``sources`` names the code each side ran: per side, the sha256 over its
src/chidip/*.py in sorted path order, each file's path relative to the
checkout and then its bytes, each prefixed by its length.  It reads the
files alone, so a checkout need not be a git repository.

After the last pair, one stderr line per workload and end-to-end metric
gives both medians, the change, the per-pair change, the wins, ``gain``,
``worse`` and ``unresolved``.

A run that exits nonzero ends the measurement: BENCH_<label>.json then
holds every workload's runs collected so far, none summarized, and
``failed_run``, that run's side, workload, pair, exit code and the tail
of its stderr, and the script exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
STDERR_LINES = 20   # the stderr lines of a failed run that are kept


def run_once(checkout: Path, workload: str, seed: int):
    """One benchmark run of the checkout; returns its JSON result line and
    raises CalledProcessError if the run exits nonzero."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def clear_bytecode(checkout: Path) -> None:
    """Remove the __pycache__ directories under the checkout's src/ and
    perfbench/."""
    for top in ("src", "perfbench"):
        for cache in sorted((checkout / top).glob("**/__pycache__")):
            shutil.rmtree(cache)


def source_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/chidip/*.py: per file in sorted path
    order, the length and bytes of its relative path, then of its content."""
    digest = hashlib.sha256()
    for path in sorted(checkout.glob("src/chidip/*.py")):
        for part in (path.relative_to(checkout).as_posix().encode(),
                     path.read_bytes()):
            digest.update(b"%d:" % len(part) + part)
    return digest.hexdigest()


def summarize(runs, metrics):
    """Whether each side's runs were all correct and how many requests they
    failed, and per end-to-end metric: both sides' quartiles, the change of
    the median and the median change within a pair, the wins of AFTER,
    whether they make a gain, whether the median got worse beyond the
    metric's bound and whether BEFORE's spread leaves it unresolved."""
    correct = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    # a change that gets answers wrong or drops requests gains nothing
    sound = all(correct.values()) and failed["after"] <= failed["before"]
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        quartiles = {side: statistics.quantiles(v, n=4, method="inclusive")
                     for side, v in values.items()}
        pairs = list(zip(values["before"], values["after"]))
        wins = sum(sign * (a - b) > 0 for b, a in pairs)
        within = [sign * (a - b) / abs(b) for b, a in pairs if b]
        beats_all = all(sign * (a - b) > 0 for a in values["after"]
                        for b in values["before"])
        q1, med, q3 = quartiles["before"]
        gap = sign * (quartiles["after"][1] - med)
        change = gap / abs(med) if med else None
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: {"q1": q[0], "median": q[1], "q3": q[2]}
               for side, q in quartiles.items()},
            "change": change,
            "pair_change": statistics.median(within) if within else None,
            "wins": wins,
            "gain": (sound and wins >= 0.9 * len(values["before"])
                     and gap > q3 - q1),
            "worse": change is not None and change < -metric["bound"],
            "unresolved": (q3 - q1 > metric["bound"] * abs(med)
                           and not beats_all),
        }
    return {"correct": correct, "failed": failed, "metrics": out}


def _percent(change):
    return "n/a" if change is None else f"{change:+.1%}"


def report(workload, summary, pairs):
    """One line per end-to-end metric of a workload's summary."""
    for name, entry in summary["metrics"].items():
        yield (f"{workload} {name}: median {entry['before']['median']:.6g} "
               f"-> {entry['after']['median']:.6g}, change "
               f"{_percent(entry['change'])}, per-pair change "
               f"{_percent(entry['pair_change'])}, wins "
               f"{entry['wins']}/{pairs}, gain {entry['gain']}, worse "
               f"{entry['worse']}, unresolved {entry['unresolved']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((checkouts["after"] / "BENCHMARK.json").read_text())

    result = {
        "label": args.label,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": spec["run_seconds"],
        "host": {"machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
        "sources": {side: source_digest(checkouts[side]) for side in SIDES},
        "workloads": {},
    }
    runs = {workload: {side: [] for side in SIDES}
            for workload in args.workload}
    for checkout in checkouts.values():
        clear_bytecode(checkout)
    try:
        for k in range(args.pairs):
            for workload in args.workload:
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    line = run_once(checkouts[side], workload, args.seed)
                    runs[workload][side].append(line)
                    print(f"{workload} pair {k} {side}: items_per_s "
                          f"{line['metrics']['items_per_s']['value']:.6g}, "
                          f"correct {line['correct']}, "
                          f"failed {line['failed']}", file=sys.stderr)
    except subprocess.CalledProcessError as err:
        result["workloads"] = {name: {"runs": sides}
                               for name, sides in runs.items()}
        result["failed_run"] = {
            "side": side, "workload": workload, "pair": k,
            "returncode": err.returncode,
            "stderr_tail": "\n".join(
                (err.stderr or "").splitlines()[-STDERR_LINES:]),
        }
        print(f"{workload} pair {k} {side}: exit {err.returncode}",
              file=sys.stderr)
    else:
        for workload, sides in runs.items():
            summary = summarize(sides, spec["end_to_end"])
            result["workloads"][workload] = {"summary": summary,
                                             "runs": sides}
            for line in report(workload, summary, args.pairs):
                print(line, file=sys.stderr)
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(path)
    return 1 if "failed_run" in result else 0


if __name__ == "__main__":
    sys.exit(main())
