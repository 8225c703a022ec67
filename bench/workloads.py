"""The benchmark's four workloads: seeded inputs, operation lists, oracles.

Every workload is a closed loop: one client, one operation at a time.  An
operation's shape (sequence, order, index pairs, derivative count, divisor
constant term) is fixed by its index in the list; the seed draws only
coefficient values, and never zero ones, so two seeds cost about the same.

Each operation carries an exact oracle.  Library results are checked
against a definition written here from the context's public table
accessors, against the same operation at q = 3/2, or against a product
identity.  A CLI process that exits non-zero has failed; a check's output
must end in ``OK: N/N checks``, and every later run of a command must
print the same bytes as its first run.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import psicalc
from tracer import TRACE_MARK

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CLI_RUNNER = os.path.join(HERE, "cli_runner.py")
CHILD_TIMEOUT_S = 60

NONZERO = tuple(v for v in range(-9, 10) if v)
KINDS = ("mul", "fontane", "star", "chain", "divide", "derivative")
PAIRS = ((1, 0), (2, 1), (3, 1), (4, 2))
CHAINS = (
    ((1, 0), (2, 1)),
    ((2, 0), (3, 1), (1, 0)),
    ((4, 1), (1, 0)),
    ((2, 1), (3, 2), (4, 0)),
)
MAX_SHIFT = 4
Q_POINT = Fraction(3, 2)


def custom_spec(bound: int) -> str:
    """The CLI's default custom sequence 0, 1, 2, 1, 3, 1, 4, ... up to ``bound``."""
    values = [0, 1] + [(n // 2 + 1) if n % 2 == 0 else 1 for n in range(2, bound + 1)]
    return "custom:[" + ",".join(map(str, values)) + "]"


@dataclass
class Failed:
    """An operation that raised or was refused; never equal to a result."""

    error: str

    def __eq__(self, other):
        return False


@dataclass
class CliResult:
    """Output of a ``psicalc`` process that exited 0."""

    stdout: bytes
    stderr: bytes = field(compare=False, default=b"")
    trace: dict | None = field(compare=False, default=None)


@dataclass
class Op:
    """One timed operation and the exact oracle for its result."""

    kind: str
    run: Callable[[], object]
    oracle: Callable[[object], bool] | None  # None: exit status and reproducibility only
    argv: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    setup_module: str
    contexts: tuple  # (spec, bound) pairs that set-up builds
    build: Callable[[int, bool], list]
    in_process: bool = True


# -- exact references ---------------------------------------------------------


def reference_chain(f, g, pairs=(), star=False) -> list:
    """The weighted product from its definition, via public table accessors."""
    ctx = f.ctx
    a, b = f.coeffs, g.coeffs
    out = []
    for n in range(min(len(a), len(b))):
        acc = ctx.zero
        for k in range(n + 1):
            t = ctx.psi_binomial(n, k) * a[k] * b[n - k]
            base = n - k if star else k
            for i, j in pairs:
                t = t * ctx.fontane_kernel(n + i, base + j)
            acc = acc + t
        out.append(acc)
    return out


def _shape(kind, v):
    """Index pairs, star flavor and derivative count of variant ``v`` of ``kind``."""
    if kind in ("fontane", "star"):
        return (PAIRS[v % len(PAIRS)],), kind == "star", 0
    if kind == "chain":
        return CHAINS[v % len(CHAINS)], False, 0
    return (), False, 1 + v % 3


def _series_call(kind, f, g, v):
    """The library call for operation ``kind`` in variant ``v``."""
    pairs, _, times = _shape(kind, v)
    calls = {
        "mul": lambda: f * g,
        "fontane": lambda: f.fontane(g, *pairs[0]),
        "star": lambda: f.star(g, *pairs[0]),
        "chain": lambda: f.chain(g, pairs),
        "divide": lambda: f.divide(g),
        "derivative": lambda: f.derivative(times),
    }
    return calls[kind]


def _definition_holds(kind, f, g, v, result) -> bool:
    pairs, star, times = _shape(kind, v)
    got = list(result.coeffs)
    if kind == "derivative":
        return got == list(f.coeffs[times:])
    if kind == "divide":
        return reference_chain(result, g) == list(f.coeffs[: result.order + 1])
    return got == reference_chain(f, g, pairs, star)


def _specializes(kind, f, g, v, result, bound) -> bool:
    """Evaluating a symbolic-q result at q = 3/2 gives the q = 3/2 result."""
    num_ctx = psicalc.get_context(f"q={Q_POINT}", bound)
    f_num = psicalc.make_series(num_ctx, [c.eval_at(Q_POINT) for c in f.coeffs])
    g_num = psicalc.make_series(num_ctx, [c.eval_at(Q_POINT) for c in g.coeffs])
    expected = _series_call(kind, f_num, g_num, v)()
    return [c.eval_at(Q_POINT) for c in result.coeffs] == list(expected.coeffs)


# -- library workloads ----------------------------------------------------------


def random_series(ctx, rng, order, c0=None):
    """A series of ``order`` with nonzero coefficients drawn from ``rng``."""
    coeffs = [rng.choice(NONZERO) for _ in range(order + 1)]
    if c0 is not None:
        coeffs[0] = c0
    return psicalc.make_series(ctx, coeffs)


def _series_ops(rng, specs, bound, orders, divide_orders, divisor_c0, count, symbolic):
    """``count`` operations cycling kind, then sequence, then order.

    The variant ``v`` (index pairs, derivative count, divisor constant
    term) walks along with the sequence and the order, so every sequence
    meets every variant.
    """
    ops = []
    for idx in range(count):
        kind = KINDS[idx % len(KINDS)]
        j = idx // len(KINDS)
        s, row = j % len(specs), j // len(specs)
        v = s + row
        kind_orders = divide_orders if kind == "divide" else orders
        order = kind_orders[row % len(kind_orders)]
        ctx = psicalc.get_context(specs[s], bound)
        c0 = divisor_c0[v % len(divisor_c0)] if kind == "divide" else None
        if c0 == "1+q":
            c0 = psicalc.Q + psicalc.embed_rational(1)
        f, g = random_series(ctx, rng, order), random_series(ctx, rng, order, c0)
        if symbolic:
            def oracle(r, kind=kind, f=f, g=g, v=v):
                return _specializes(kind, f, g, v, r, bound) and (
                    kind != "divide" or _definition_holds(kind, f, g, v, r)
                )
        else:
            def oracle(r, kind=kind, f=f, g=g, v=v):
                return _definition_holds(kind, f, g, v, r)
        ops.append(Op(kind, _series_call(kind, f, g, v), oracle))
    return ops


RATIONAL_ORDERS = (32, 40, 48, 56, 64)
RATIONAL_BOUND = RATIONAL_ORDERS[-1] + MAX_SHIFT
RATIONAL_SPECS = ("natural", "fib", "q=3/2", custom_spec(RATIONAL_BOUND))


def build_series_rational(seed: int, tiny: bool = False) -> list:
    rng = random.Random(seed)
    orders = (6, 8) if tiny else RATIONAL_ORDERS
    count = len(KINDS) * len(RATIONAL_SPECS) * (1 if tiny else len(orders))
    return _series_ops(rng, RATIONAL_SPECS, RATIONAL_BOUND, orders, orders,
                       (1, 2, 3), count, symbolic=False)


Q_ORDERS = (8, 12, 16, 20, 24)
# symbolic division grows ~16x per 4 orders (256 ms at order 16 with
# constant term 2); capping it at 16 keeps a pass near two seconds
Q_DIVIDE_ORDERS = (8, 10, 12, 14, 16)
Q_DIVISOR_C0 = (1, 2, 3, "1+q")
Q_BOUND = Q_ORDERS[-1] + MAX_SHIFT


def build_series_q(seed: int, tiny: bool = False) -> list:
    rng = random.Random(seed)
    orders = (4, 5) if tiny else Q_ORDERS
    divide_orders = (4, 5) if tiny else Q_DIVIDE_ORDERS
    count = 2 * len(KINDS) if tiny else len(KINDS) * len(Q_ORDERS) * len(Q_DIVISOR_C0)
    return _series_ops(rng, ("q",), Q_BOUND, orders, divide_orders,
                       Q_DIVISOR_C0, count, symbolic=True)


LEIBNIZ_SPECS = ("fib", "natural")
LEIBNIZ_ORDERS = (16, 17, 18, 19, 20)
LEIBNIZ_MAX_N = 8
LEIBNIZ_BOUND = LEIBNIZ_ORDERS[-1] + LEIBNIZ_MAX_N


def build_leibniz(seed: int, tiny: bool = False) -> list:
    rng = random.Random(seed)
    max_n = 3 if tiny else LEIBNIZ_MAX_N
    orders = (5,) if tiny else LEIBNIZ_ORDERS
    count = 2 * max_n if tiny else 13 * LEIBNIZ_MAX_N
    ops = []
    for idx in range(count):
        n = 1 + idx % max_n
        spec = LEIBNIZ_SPECS[(idx // max_n) % len(LEIBNIZ_SPECS)]
        order = orders[(idx // (max_n * len(LEIBNIZ_SPECS))) % len(orders)]
        ctx = psicalc.get_context(spec, LEIBNIZ_BOUND)
        f, g = random_series(ctx, rng, order), random_series(ctx, rng, order)
        ops.append(Op(
            f"leibniz.n={n}",
            lambda f=f, g=g, n=n: psicalc.general_leibniz(f, g, n),
            lambda r, f=f, g=g, n=n: r == (f * g).derivative(n),
        ))
    return ops


# -- CLI workload -------------------------------------------------------------------

CLI_CHECK_SPECS = ("natural", "q", "q=3/2", "fib", custom_spec(12))
CLI_SUITES = ("rings", "rules", "leibniz", "quotient")
CLI_OP_KINDS = ("mul", "fontane", "star", "chain", "derive", "div")
CLI_OP_SPECS = ("natural", "fib", "q=3/2", "q", custom_spec(12))
CLI_OP_ORDERS = (0, 3, 6, 10)
OK_LINE = re.compile(rb"^OK: (\d+)/\1 checks$", re.M)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliError(Exception):
    """A ``psicalc`` process that exited non-zero."""


def run_cli(argv, traced: bool = False) -> CliResult:
    """Run one fresh ``psicalc`` process; a traced one reports its counters."""
    prefix = [sys.executable, CLI_RUNNER] if traced else [sys.executable, "-m", "psicalc"]
    proc = subprocess.run(prefix + list(argv), capture_output=True,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    trace = None
    stderr = proc.stderr
    if traced:
        head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
        if last.startswith(TRACE_MARK.encode()):
            trace = json.loads(last[len(TRACE_MARK):])
            stderr = head
    if proc.returncode != 0:
        message = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise CliError(f"exit {proc.returncode}: {message[0]}")
    return CliResult(proc.stdout, stderr, trace)


def _checks_passed(res: CliResult) -> bool:
    return OK_LINE.search(res.stdout) is not None


def _inline(rng, order, c0=None) -> str:
    coeffs = [rng.choice(NONZERO) for _ in range(order + 1)]
    if c0 is not None:
        coeffs[0] = c0
    return json.dumps(coeffs, separators=(",", ":"))


def build_cli_check(seed: int, tiny: bool = False) -> list:
    rng = random.Random(seed)
    commands = []
    check_specs = CLI_CHECK_SPECS[:1] if tiny else CLI_CHECK_SPECS
    for suite in CLI_SUITES[:1] if tiny else CLI_SUITES:
        for spec in check_specs:
            argv = ("check", suite, "--psi", spec, "--seed", str(seed))
            if tiny:
                argv += ("--order", "4", "--trials", "2")
            commands.append(("check", argv))
    for idx in range(6 if tiny else 60):
        kind = CLI_OP_KINDS[idx % len(CLI_OP_KINDS)]
        spec = CLI_OP_SPECS[idx % len(CLI_OP_SPECS)]
        order = CLI_OP_ORDERS[idx % len(CLI_OP_ORDERS)]
        if kind == "derive":
            # the derivative of an order-0 series is undefined, not a defect
            commands.append(("op", ("op", "derive", _inline(rng, max(order, 1)), "--psi", spec)))
            continue
        c0 = 1 + idx % 3 if kind == "div" else None
        argv = ("op", kind, _inline(rng, order), _inline(rng, order, c0), "--psi", spec)
        if kind in ("fontane", "star"):
            argv += ("--i", "2", "--j", "1")
        elif kind == "chain":
            argv += ("--chain", "[(2,1),(1,0)]")
        commands.append(("op", argv))
    for idx in range(1 if tiny else 10):
        spec = CLI_OP_SPECS[idx % len(CLI_OP_SPECS)]
        fmt = ("plain", "json")[idx % 2]
        commands.append(("seq", ("seq", "--psi", spec, "--n", str(4 + idx % 8), "--format", fmt)))
    for idx in range(1 if tiny else 10):
        fmt = ("plain", "json")[idx % 2]
        commands.append(("pascal", ("pascal", "--n", str(1 + idx % 9), "--format", fmt)))
    return [Op(kind, lambda argv=argv: run_cli(argv),
               _checks_passed if kind == "check" else None, argv)
            for kind, argv in commands]


WORKLOADS = {
    "series-rational": Workload(
        "series-rational", "psicalc",
        tuple((spec, RATIONAL_BOUND) for spec in RATIONAL_SPECS), build_series_rational),
    "series-q": Workload("series-q", "psicalc", (("q", Q_BOUND),), build_series_q),
    "leibniz": Workload(
        "leibniz", "psicalc",
        tuple((spec, LEIBNIZ_BOUND) for spec in LEIBNIZ_SPECS), build_leibniz),
    "cli-check": Workload(
        "cli-check", "psicalc.cli",
        tuple((spec, 12) for spec in CLI_CHECK_SPECS), build_cli_check, in_process=False),
}


# -- sizes and perturbation ------------------------------------------------------


def _scalar_size(x) -> tuple[int, int]:
    """(degree in q, largest numerator or denominator bit length) of a scalar."""
    if isinstance(x, dict):  # a rational function of q in the CLI's JSON form
        x = psicalc.RatFuncQ.from_json(x)
    polys = (x.num, x.den) if isinstance(x, psicalc.RatFuncQ) else ()
    values = [c for p in polys for c in p.coeffs] if polys else [x]
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in map(Fraction, values)), default=0)
    return max((p.degree for p in polys), default=0), bits


def _flatten(payload):
    if isinstance(payload, list):
        for item in payload:
            yield from _flatten(item)
    else:
        yield payload


def result_sizes(result) -> tuple[int, int]:
    """Largest degree in q and largest coefficient bit length in a result."""
    if isinstance(result, CliResult):
        if not result.stdout.startswith(b"{"):
            return 0, 0
        payload = json.loads(result.stdout)
        tables = [payload[k] for k in ("coeffs", "values", "factorials", "binomials", "kernels")
                  if k in payload]
        scalars = list(_flatten(tables))
    else:
        scalars = list(getattr(result, "coeffs", ()))
    sizes = [_scalar_size(x) for x in scalars]
    return max((s[0] for s in sizes), default=0), max((s[1] for s in sizes), default=0)


def perturb(result):
    """A copy of ``result`` that differs in one place, for the self-test."""
    if isinstance(result, CliResult):
        if b"OK: " in result.stdout:
            return CliResult(result.stdout.replace(b"OK: ", b"FAILED: "))
        return CliResult(result.stdout + b" ")
    coeffs = list(result.coeffs)
    coeffs[-1] = coeffs[-1] + result.ctx.one
    return psicalc.WardSeries(result.ctx, coeffs)
