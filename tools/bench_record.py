"""Record alternating parent/change runs of the benchmark in one BENCH_<n>.json file.

Run from the repository root, for example:

    python3 tools/bench_record.py --parent HEAD --out BENCH_6.json \\
        --runs series-rational:1-10 --runs series-q:1-3 \\
        --runs leibniz:1-3 --runs cli-check:1-3

The parent commit's files are extracted with ``git archive`` into a
temporary directory; the change is the working tree as it stands.  For
each workload and seed, the unchanged ``bench/run.py`` of each side runs
once (``--trace 0``) for the ``run_seconds`` of ``BENCHMARK.json``, the
side that goes first alternating from seed to seed, and the JSON object on
the last line of its output is kept; then each side runs once traced
(``--trace 1``) at the workload's first seed.
The file holds every run's six end-to-end metrics and, per workload and
metric, the median of each side, their ratio, the interquartile range of
each side, in how many pairs the change was better and a verdict, followed by
the per-layer metrics of the traced runs.  Progress goes to stderr, and so
does one verdict line per workload and metric at the end.

A verdict reads the metric's bound in ``BENCHMARK.json``, a fraction of
the parent's median, and is the first of these that holds:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's interquartile range exceeds the bound times
  its median, so the runs cannot tell a change within the bound, unless
  every run of the change is better than every run of the parent;
* ``better``: the change is better in at least nine tenths of the pairs,
  ties counting for neither, and its median is better than the parent's
  by more than the parent's interquartile range;
* ``within bound``: anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text: str) -> tuple[str, list[int]]:
    """``workload:1-10`` or ``workload:3,5,8`` as (workload, seeds)."""
    workload, _, spec = text.partition(":")
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected workload:seeds, got {text!r}")
    return workload, seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    # each side imports only its own sources
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    """The interquartile range of the runs of one side; 0 for a single run."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[2] - q[0]


def compare(par: list, chg: list, lower: bool, bound: float) -> dict:
    """One metric's medians, ratio, IQR of each side, pairs the change won and verdict.

    The statistics are computed once, and the verdict (see the module doc)
    is read from the same numbers the record reports.  The change's IQR is
    reported beside the parent's so that a reader can see when a verdict
    rests on a side whose own runs spread wide; the verdict reads only the
    parent's.
    """
    sign = 1 if lower else -1  # sign * value is lower when better
    mp, mc, iqr = statistics.median(par), statistics.median(chg), spread(par)
    gain = sign * (mp - mc)
    won = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
    if -gain > bound * abs(mp):
        verdict = "worse"
    elif iqr > bound * abs(mp) and max([sign * c for c in chg]) >= min([sign * p for p in par]):
        verdict = "unresolved"
    elif 10 * won >= 9 * len(par) and gain > iqr:
        verdict = "better"
    else:
        verdict = "within bound"
    return {"parent_median": mp, "change_median": mc,
            "change_over_parent": mc / mp if mp else None, "parent_iqr": iqr,
            "change_iqr": spread(chg), "change_better_pairs": f"{won}/{len(par)}",
            "verdict": verdict}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and metric: medians, ratio, parent IQR, pairs the change won, verdict."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        table = {}
        for metric in end_to_end:
            name = metric["name"]
            par = [p["parent"][name]["value"] for p in pairs.values()]
            chg = [p["change"][name]["value"] for p in pairs.values()]
            table[name] = {"unit": metric["unit"], **compare(par, chg, metric["better"] == "lower",
                                                             metric["bound"])}
        out[workload] = table
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--runs", type=seeds_of, action="append", required=True,
                        help="workload:seeds, e.g. series-q:1-3; repeat per workload")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]

    parent_dir = tempfile.mkdtemp(prefix="bench-parent-")
    runs, traced = [], []
    try:
        extract(args.parent, parent_dir)
        trees = {"parent": parent_dir, "change": ROOT}
        for workload, seeds in args.runs:
            for trace, seed in [(0, seed) for seed in seeds] + [(1, seeds[0])]:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    print(f"{workload} seed {seed} trace {trace}: {side}", file=sys.stderr,
                          flush=True)
                    result = run_bench(trees[side], workload, seed, seconds, trace)
                    (traced if trace else runs).append(
                        {"workload": workload, "seed": seed, "side": side,
                         "first": side == order[0], **result})
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    record = {
        "command": "python3 tools/bench_record.py " + " ".join(
            argv if argv is not None else sys.argv[1:]),
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + (
            " + working tree changes"
            if git("status", "--porcelain", "--untracked-files=no") else ""),
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "seconds": seconds,
        "summary": summarize(runs, contract["end_to_end"]),
        "runs": runs,
        "traced": traced,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, table in record["summary"].items():
        for name, row in table.items():
            print(f"{workload} {name}: {row['verdict']} (median {row['parent_median']:.4g} -> "
                  f"{row['change_median']:.4g} {row['unit']}, IQR {row['parent_iqr']:.3g} -> "
                  f"{row['change_iqr']:.3g}, change better in {row['change_better_pairs']} pairs)",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
