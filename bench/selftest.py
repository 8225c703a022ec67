"""Self-test of the benchmark on tiny inputs.

Run from the repository root:

    python3 bench/selftest.py

For every workload it makes a tiny run in each mode and checks that the
metrics reported are exactly those BENCHMARK.json names, with the same
units, and that no result was wrong.  It then checks that each
operation's oracle accepts the real result and rejects a perturbed copy.
Exits 0 when all holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, measure, warm_up
from workloads import WORKLOADS, perturb


def declared() -> tuple[dict, dict, set]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer, {w["name"] for w in spec["workloads"]}


def check_metrics(name: str, end_to_end: dict, per_layer: dict) -> list[str]:
    problems = []
    for trace, expected in ((False, end_to_end), (True, per_layer)):
        result, _ = measure(name, seed=1, seconds=0, trace=trace, tiny=True)
        got = {key: m["unit"] for key, m in result["metrics"].items()}
        if got != expected:
            diff = sorted(set(got.items()) ^ set(expected.items()))
            problems.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json: {diff}")
        if not result["correct"]:
            problems.append(f"{name} trace={int(trace)}: a result failed its oracle")
    return problems


def check_oracles(name: str) -> list[str]:
    """The real result passes; a perturbed one fails its oracle or, where a
    command has no oracle, the comparison with the command's first run."""
    ops = WORKLOADS[name].build(1, True)
    warm_up(ops)
    problems, checked = [], 0
    for i, op in enumerate(ops):
        try:
            result = op.run()
        except Exception:  # refusals are the benchmark's to count, not the oracle's
            continue
        checked += 1
        bad = perturb(result)
        if op.oracle is not None and not op.oracle(result):
            problems.append(f"{name} op {i} ({op.kind}): oracle rejects the real result")
        if (op.oracle(bad) if op.oracle is not None else bad == result):
            problems.append(f"{name} op {i} ({op.kind}): a perturbed result is accepted")
    if not checked:
        problems.append(f"{name}: no operation produced a result")
    return problems


def main() -> int:
    end_to_end, per_layer, workloads = declared()
    problems = []
    if workloads != set(WORKLOADS):
        problems.append(f"workloads differ: {sorted(workloads ^ set(WORKLOADS))}")
    for name in WORKLOADS:
        found = check_metrics(name, end_to_end, per_layer) + check_oracles(name)
        print(f"{name}: {'ok' if not found else f'{len(found)} problem(s)'}")
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
