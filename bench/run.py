"""psicalc benchmark: run one workload, timed end to end or traced by layer.

Run from the repository root:

    python3 bench/run.py --workload series-q --seed 1 --seconds 10 --trace 0

Workloads: series-rational, series-q, leibniz, cli-check (see workloads.py
and BENCHMARK.json for why each exists).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The traced run
also writes its spans to ``.bench_out/spans-<workload>-<seed>.jsonl``.

A run builds the operation list from the seed, runs one untimed warm-up
of each operation kind, then repeats the list for ``--seconds`` and at
least twice.  Every time is scaled to reference machine speed by a
calibration loop timed around it (calibrate.py).  An operation's time is
its median over the passes; set-up time is the median over fresh
processes spread across the run.  After the timing, first-pass results go
to exact oracles and later passes must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import calibration_s, scale  # noqa: E402
from probes import run_probes  # noqa: E402  (needs the sources on sys.path)
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Failed,
    child_env,
    result_sizes,
    run_cli,
)

OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 7
SETUP_SPACING_S = 2.0
# every later pass must reproduce the first pass's results; this matters for
# cli-check, whose pass is longer than a run's seconds
MIN_PASSES = 2

# time to import psicalc and build the workload's contexts, in a fresh process
SETUP_CODE = """\
import importlib, sys, time
t0 = time.perf_counter()
importlib.import_module(sys.argv[1])
from psicalc import get_context
for spec, bound in zip(sys.argv[2::2], sys.argv[3::2]):
    get_context(spec, int(bound))
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = (
    "coefficients.PolyQ.mul",
    "coefficients.PolyQ.divmod",
    "coefficients.RatFuncQ.init",
    "coefficients.poly_gcd",
    "psi_context.from_spec",
    "series.chain",
    "series.add",
    "series.divide",
    "series.derivative",
    "operator_algebra.binomial_operator",
    "operator_algebra.OperatorSum.apply",
    "calculus.general_leibniz",
    "calculus.reports",
    "verify.run_suites",
    "verify.random_series",
)
PROBES = (
    "probe.PolyQ.mul.deg50_s",
    "probe.PolyQ.mul.deg200_s",
    "probe.PolyQ.mul.deg500_s",
    "probe.from_spec.q.b24_s",
    "probe.from_spec.q.b32_s",
    "probe.from_spec.q.b40_s",
    "probe.divide.q.c2.o12_s",
    "probe.divide.q.c2.o16_s",
    "probe.general_leibniz.fib16.n6_s",
    "probe.general_leibniz.fib16.n8_s",
)
PER_LAYER = {
    **{f"{layer}.{part}": unit for layer in _TIMED_LAYERS
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    "coefficients.poly_gcd.useful_ratio": "ratio",
    "coefficients.max_degree": "degree",
    "coefficients.max_coeff_bits": "bits",
    "psi_context.get_context.calls": "count",
    "psi_context.get_context.hit_ratio": "ratio",
    "psi_context.table_cells": "count",
    "series.chain.term_mults": "count",
    "operator_algebra.ProductChain.apply.calls": "count",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    **{name: "s" for name in PROBES},
}


class Passes:
    """Timings of repeated passes over one operation list.

    Every latency is scaled to reference machine speed (see calibrate.py);
    an operation's cost is the median of its scaled latencies over the
    passes, and ``wall_s`` and the latency percentiles are taken over these
    medians.  Results of later passes are compared with the first pass's
    and dropped, so memory does not grow with the number of passes; only
    the first pass's results go to the oracles.
    """

    def __init__(self, n_ops: int, first=None):
        self.count = 0
        self.latencies = [[] for _ in range(n_ops)]
        self.first = first
        self.same = [0] * n_ops
        self.errors = 0
        self.diverged = 0

    def add(self, latencies: list, results: list) -> None:
        self.count += 1
        for samples, t in zip(self.latencies, latencies):
            samples.append(t)
        if self.first is None:
            self.first = results
        for i, r in enumerate(results):
            if isinstance(r, Failed):
                self.errors += 1
            elif r == self.first[i]:
                self.same[i] += 1
            else:
                self.diverged += 1

    @property
    def per_op(self) -> list:
        return [statistics.median(samples) for samples in self.latencies]

    @property
    def wall_s(self) -> float:
        return sum(self.per_op)


def one_pass(ops, between=None):
    """Time each operation, scaled by calibrations taken just before and after it.

    ``between`` runs after each operation, outside its timing, and returns
    whether it did anything, in which case the next calibration is retaken.
    """
    latencies, results = [], []
    before = calibration_s()
    for op in ops:
        t0 = time.perf_counter()
        try:
            r = op.run()
        except Exception as exc:  # a raising operation is a counted failure
            r = Failed(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        after = calibration_s()
        latencies.append(scale(elapsed, before, after))
        results.append(r)
        before = calibration_s() if between is not None and between() else after
    return latencies, results


def run_passes(ops, seconds: float, passes: Passes, min_passes: int = 1,
               between=None, after_pass=None) -> Passes:
    """Repeat the operation list until ``seconds`` and ``min_passes`` are both reached."""
    start = time.perf_counter()
    while passes.count < min_passes or time.perf_counter() - start < seconds:
        latencies, results = one_pass(ops, between)
        passes.add(latencies, results)
        if after_pass is not None:
            after_pass(results)
    return passes


class SetupClock:
    """Set-up time samples, each from a fresh interpreter.

    Each sample is the child's own timing, scaled by calibrations taken
    just before and after the child runs.  Samples are spread over the
    run: ``maybe_sample`` takes one at most every ``SETUP_SPACING_S`` and
    is called between timed operations.
    """

    def __init__(self, workload):
        self.argv = [sys.executable, "-c", SETUP_CODE, workload.setup_module]
        for spec, bound in workload.contexts:
            self.argv += [spec, str(bound)]
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        before = calibration_s()
        proc = subprocess.run(self.argv, capture_output=True, env=child_env(),
                              timeout=120, check=True)
        self.samples.append(scale(float(proc.stdout), before, calibration_s()))
        self.last = time.perf_counter()

    def maybe_sample(self) -> bool:
        if time.perf_counter() - self.last < SETUP_SPACING_S:
            return False
        self.sample()
        return True

    def median(self) -> float:
        while len(self.samples) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.samples)


def warm_up(ops, between=None) -> None:
    """Run the first operation of each kind once, untimed, to fill caches."""
    seen = set()
    for op in ops:
        if op.kind in seen:
            continue
        seen.add(op.kind)
        try:
            op.run()
        except Exception:  # the timed passes count the failure
            pass
        if between is not None:
            between()


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def tally(ops, phases: list) -> dict:
    """Failures over every pass of every phase; oracles see the first pass."""
    reasons: set[str] = set()
    first = phases[0].first
    wrong = 0
    for i, (op, r) in enumerate(zip(ops, first)):
        if isinstance(r, Failed):
            reasons.add(r.error)
            continue
        try:
            ok = op.oracle is None or op.oracle(r)
        except Exception:  # an oracle that cannot evaluate counts as a mismatch
            ok = False
        if not ok:
            wrong += sum(p.same[i] for p in phases)
    attempted = sum(p.count for p in phases) * len(ops)
    errors = sum(p.errors for p in phases)
    diverged = sum(p.diverged for p in phases)
    failed = errors + diverged + wrong
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wrong": wrong + diverged,
        # a refusal is a failure, but only a wrong result is incorrect
        "correct": wrong + diverged == 0 and failed < attempted,
        "reasons": sorted(reasons),
    }


def end_to_end(workload, seed: int, seconds: float, tiny: bool):
    clock = SetupClock(workload)
    ops = workload.build(seed, tiny)
    warm_up(ops, between=clock.maybe_sample)
    passes = run_passes(ops, seconds, Passes(len(ops)), min_passes=MIN_PASSES,
                        between=clock.maybe_sample)
    rss = peak_rss_mb(workload)
    counts = tally(ops, [passes])
    per_op = passes.per_op
    metrics = {
        "setup_s": clock.median(),
        "wall_s": passes.wall_s,
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * statistics.quantiles(per_op, n=10)[-1],
        "ok_frac": 1 - counts["failed"] / counts["attempted"],
        "peak_rss_mb": rss,
    }
    median_of = f"each op's median of {passes.count} passes, at reference speed"
    notes = {
        "setup_s": f"median of {len(clock.samples)} fresh processes",
        "wall_s": f"sum over {len(ops)} ops of {median_of}",
        "op_p50_ms": f"over {len(ops)} ops, {median_of}",
        "op_p90_ms": f"over {len(ops)} ops ({len(ops) // 10} above p90), {median_of}",
        "ok_frac": f"failed_frac = {counts['failed']}/{counts['attempted']} "
                   f"({counts['errors']} raised or refused, {counts['wrong']} wrong)",
        "peak_rss_mb": "this process" if workload.in_process else "largest child process",
    }
    return metrics, END_TO_END, notes, counts


def _tag_requests(ops, tracer):
    """Copies of ``ops`` that label the spans they cause with their index."""
    def tagged(i, run):
        tracer.request = i
        return run()
    return [replace(op, run=partial(tagged, i, op.run)) for i, op in enumerate(ops)]


def traced(workload, seed: int, seconds: float, tiny: bool):
    setup_tracer, pass_tracer = Tracer(), Tracer()
    with setup_tracer.installed():
        ops = workload.build(seed, tiny)
    warm_up(ops)
    plain = run_passes(ops, seconds / 2, Passes(len(ops)))
    cli_imports, stdout_bytes = [], []

    if workload.in_process:
        with pass_tracer.installed():
            traced_passes = run_passes(_tag_requests(ops, pass_tracer), seconds / 2,
                                       Passes(len(ops), plain.first))
    else:
        def collect(results):
            done = [(i, r) for i, r in enumerate(results) if not isinstance(r, Failed)]
            stdout_bytes.append(sum(len(r.stdout) for _, r in done))
            for i, r in done:
                if r.trace is not None:
                    pass_tracer.merge(r.trace, request=i)
                    cli_imports.append(r.trace["import_s"])

        traced_ops = [replace(op, run=partial(run_cli, op.argv, traced=True)) for op in ops]
        traced_passes = run_passes(traced_ops, seconds / 2, Passes(len(ops), plain.first),
                                   after_pass=collect)
    counts = tally(ops, [plain, traced_passes])
    n = traced_passes.count

    def value(counter, key):
        return getattr(setup_tracer, counter)[key] + getattr(pass_tracer, counter)[key] / n

    metrics = {}
    for layer in _TIMED_LAYERS:
        metrics[f"{layer}.calls"] = value("calls", layer)
        metrics[f"{layer}.self_s"] = value("self_s", layer)
    gcds = metrics["coefficients.poly_gcd.calls"]
    metrics["coefficients.poly_gcd.useful_ratio"] = (
        value("extra", "coefficients.poly_gcd.useful") / gcds if gcds else 0.0)
    sizes = [result_sizes(r) for r in plain.first]
    metrics["coefficients.max_degree"] = max(s[0] for s in sizes)
    metrics["coefficients.max_coeff_bits"] = max(s[1] for s in sizes)
    lookups = value("calls", "psi_context.get_context")
    metrics["psi_context.get_context.calls"] = lookups
    metrics["psi_context.get_context.hit_ratio"] = (
        value("extra", "psi_context.get_context.hits") / lookups if lookups else 0.0)
    metrics["psi_context.table_cells"] = value("extra", "psi_context.table_cells")
    metrics["series.chain.term_mults"] = value("extra", "series.chain.term_mults")
    metrics["operator_algebra.ProductChain.apply.calls"] = value(
        "calls", "operator_algebra.ProductChain.apply")
    metrics["cli.import_s"] = statistics.median(cli_imports) if cli_imports else 0.0
    metrics["cli.main.self_s"] = value("self_s", "cli.main")
    metrics["cli.stdout_bytes"] = statistics.median(stdout_bytes) if stdout_bytes else 0
    metrics["trace.overhead_frac"] = traced_passes.wall_s / plain.wall_s - 1
    metrics.update(run_probes(seed))

    _write_spans(workload.name, seed, setup_tracer.spans, pass_tracer.spans)
    missing = sorted(set(setup_tracer.missing + pass_tracer.missing))
    notes = {name: "" for name in metrics}
    notes["trace.overhead_frac"] = (
        f"median of {n} traced passes against median of {plain.count} untraced; "
        "counters are per traced pass"
        + (f"; not found: {', '.join(missing)}" if missing else ""))
    return metrics, PER_LAYER, notes, counts


def _write_spans(name, seed, setup_spans, pass_spans) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in (("setup", setup_spans), ("pass", pass_spans)):
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")


def measure(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (result object, readable lines)."""
    workload = WORKLOADS[workload_name]
    run = traced if trace else end_to_end
    metrics, units, notes, counts = run(workload, seed, seconds, tiny)
    lines = [f"{workload_name} seed={seed} trace={int(trace)}: "
             f"{counts['attempted']} attempted, {counts['failed']} failed"]
    lines += [f"  failure: {reason}" for reason in counts["reasons"]]
    for name, unit in units.items():
        lines.append(f"  {name:<44} {metrics[name]:>14.6g} {unit:<6} {notes[name]}".rstrip())
    result = {
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
