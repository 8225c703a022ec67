"""Command-line front end.

Four subcommands: ``seq`` tabulates a sequence with its factorials,
binomials, and kernel triangle; ``op`` applies series operations to JSON
series files or inline coefficient lists; ``pascal`` renders the operator
triangle; ``check`` runs the verification suites.  Each subcommand imports
only the layers it runs: ``pascal`` the operator layer, ``check`` the
suites, which bring in the operator and calculus layers.

Exit codes: 0 success, 1 operation or verification failure, 2 usage or
input errors.  Output is deterministic for a fixed command line; the JSON
forms carry no timestamps or environment data.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .coefficients import scalar_from_json, scalar_to_json
from .errors import (
    ECHO_LIMIT,
    BadIndices,
    BadSpec,
    IndexOutOfBound,
    KernelUndefined,
    KOutOfRange,
    ParseError,
    PsiCalcError,
    echo,
)
from .psi_context import get_context
from .series import WardSeries, check_pair, series_header

# IndexOutOfBound covers BoundExceeded, a read past a custom list's end
_USAGE_ERRORS = (BadSpec, ParseError, BadIndices, KOutOfRange, KernelUndefined, IndexOutOfBound)
# ValueError covers malformed JSON, undecodable bytes and integers longer
# than Python's int-string digit limit; RecursionError, nesting deeper than
# the decoder's recursion limit
_JSON_ERRORS = (ValueError, RecursionError)

# ``pascal`` renders every chain of every <n k>, so its output about doubles
# with each row: n = 12 prints 0.3 MB in 0.4 s, n = 18 would print 32 MB
# over 20 s.  A larger n is refused as a usage error.
PASCAL_MAX_N = 12


# verify.SUITE_NAMES, spelled out so that building the parser loads no suite
_SUITES = ("rings", "rules", "leibniz", "quotient")


@contextmanager
def _exact_output():
    """Lift Python's int-to-str digit limit while results are written out.

    The CLI's job is to print exact values, and a sequence table passes
    4300 digits early (``seq --psi fib --n 210``).  The limit stays in force
    for everything that is read, so over-long JSON integers are still
    refused.
    """
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:  # an interpreter without the limit
        yield
        return
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _fmt_row(values) -> str:
    return ", ".join(map(str, values))


def cmd_seq(spec: str, n_max: int, fmt: str) -> str:
    ctx = get_context(spec, n_max)
    values = [ctx.psi_value(n) for n in range(n_max + 1)]
    facts = [ctx.psi_factorial(n) for n in range(n_max + 1)]
    binoms = [[ctx.psi_binomial(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
    kernels = [[ctx.fontane_kernel(n, k) for k in range(n)] for n in range(1, n_max + 1)]
    with _exact_output():
        if fmt == "json":
            payload = {
                "psi": ctx.spec_string(),
                "n": n_max,
                "values": [scalar_to_json(v) for v in values],
                "factorials": [scalar_to_json(v) for v in facts],
                "binomials": [[scalar_to_json(v) for v in row] for row in binoms],
                "kernels": [[scalar_to_json(v) for v in row] for row in kernels],
            }
            return json.dumps(payload, indent=2)
        lines = [
            f"spec: {ctx.spec_string()}",
            f"psi:  {_fmt_row(values)}",
            f"fact: {_fmt_row(facts)}",
            "binomials:",
        ]
        lines += [f"  n={n}: {_fmt_row(row)}" for n, row in enumerate(binoms)]
        lines.append("kernels:")
        lines += [f"  n={n}: {_fmt_row(row)}" for n, row in enumerate(kernels, start=1)]
        return "\n".join(lines)


_OP_KINDS = ("mul", "fontane", "star", "chain", "derive", "div")


def _parse_chain(text: str) -> tuple[tuple[int, int], ...]:
    import ast

    try:
        raw = ast.literal_eval(text)
        if not isinstance(raw, (list, tuple)):
            # a dict, set or scalar literal is no list of pairs
            raise TypeError
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ParseError(f"cannot parse chain {echo(text)}") from exc
    return tuple([check_pair(p) for p in raw])


def _load_operands(args_list, psi_flag: str | None) -> list[WardSeries]:
    """Read series from JSON files or inline ``[a0,a1,...]`` literals.

    All operands end up on one shared context so binary operations see the
    same sequence object.
    """
    operands = []  # (spec, coefficients), spec None for an inline list
    for arg in args_list:
        if arg.lstrip().startswith("["):
            try:
                operands.append((None, json.loads(arg)))
            except _JSON_ERRORS as exc:
                raise ParseError(f"cannot parse inline series {echo(arg)}") from exc
        else:
            try:
                with open(arg, encoding="utf-8") as fh:
                    data = json.load(fh)
            except _JSON_ERRORS as exc:
                raise ParseError(f"{arg}: not a JSON series file ({exc})") from exc
            try:
                spec, _, coeffs = series_header(data)
            except ParseError as exc:
                raise ParseError(f"{arg}: {exc}") from exc
            operands.append((spec, coeffs))

    specs = [spec for spec, _ in operands if spec is not None]
    if psi_flag is not None:
        specs.append(psi_flag)
    if not specs:
        raise BadSpec("inline series need --psi")
    # spellings of one canonical spec (q=6/4, q=3/2) share one context
    contexts = {get_context(spec) for spec in specs}
    if len(contexts) > 1:
        raise ParseError(
            "operands disagree on the sequence: "
            + echo(sorted(c.spec_string() for c in contexts))
        )
    ctx = contexts.pop()
    return [WardSeries(ctx, [scalar_from_json(c, ctx.symbolic) for c in coeffs])
            for _, coeffs in operands]


def cmd_op(kind: str, operands, psi: str | None, i: int, j: int,
           chain_text: str | None) -> str:
    pairs: tuple[tuple[int, int], ...] = ()
    if kind == "chain":
        if chain_text is None:
            raise BadSpec("op chain needs --chain \"[(i,j),...]\"")
        pairs = _parse_chain(chain_text)

    need = 2 if kind != "derive" else 1
    if len(operands) != need:
        raise BadSpec(f"op {kind} takes {need} series operand(s), got {len(operands)}")
    series = _load_operands(operands, psi)

    if kind == "mul":
        result = series[0] * series[1]
    elif kind == "fontane":
        result = series[0].fontane(series[1], i, j)
    elif kind == "star":
        result = series[0].star(series[1], i, j)
    elif kind == "chain":
        result = series[0].chain(series[1], pairs)
    elif kind == "derive":
        result = series[0].derivative()
    else:
        result = series[0].divide(series[1])
    with _exact_output():
        return json.dumps(result.to_json_dict(), indent=2)


def cmd_pascal(n_max: int, fmt: str) -> str:
    from .operator_algebra import binomial_operator

    rows = [
        [binomial_operator(n, k).render() for k in range(n + 1)]
        for n in range(n_max + 1)
    ]
    if fmt == "json":
        payload = {
            "n": n_max,
            "rows": [
                {"n": n, "k": k, "op": op}
                for n, row in enumerate(rows)
                for k, op in enumerate(row)
            ],
        }
        return json.dumps(payload, indent=2)
    return "\n".join(" | ".join(row) for row in rows)


def cmd_check(suite: str, psi: str | None, order: int, trials: int, seed: int,
              fmt: str) -> tuple[str, bool]:
    from . import verify

    suites = verify.SUITE_NAMES if suite == "all" else (suite,)
    specs = (psi,) if psi else verify.default_specs(order)
    reports = verify.run_suites(suites, specs, order, trials, seed)
    ok = all(r.ok for r in reports)
    if fmt == "json":
        with _exact_output():
            payload = {
                "suites": list(suites),
                "specs": list(specs),
                "order": order,
                "trials": trials,
                "seed": seed,
                "ok": ok,
                "reports": [r.to_json_dict() for r in reports],
            }
            return json.dumps(payload, indent=2), ok
    lines = []
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        tail = "" if r.first_diff is None else f"  first_diff={r.first_diff}"
        lines.append(f"{status} {r.rule} [{r.psi}] order={r.order}{tail}")
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.ok for r in reports)}/{len(reports)} checks")
    return "\n".join(lines), ok


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are cut, as every error of the package is.

    argparse quotes a bad value whole, or every stray argument.  A message
    past three echo limits keeps its head and its tail, as ``reprlib`` cuts
    a string; one that quotes a value within ``ECHO_LIMIT`` is never that
    long.  Subparsers are made of this class too.
    """

    def error(self, message):
        half = (3 * ECHO_LIMIT - 3) // 2
        if len(message) > 3 * ECHO_LIMIT:
            message = f"{message[:half]}...{message[-half:]}"
        super().error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psicalc",
        description="Exact calculus on factorial-normalized power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="tabulate a sequence with factorials, binomials, kernels")
    p_seq.add_argument("--psi", required=True)
    p_seq.add_argument("--n", type=int, default=6)
    p_seq.add_argument("--format", choices=("plain", "json"), default="plain")

    p_op = sub.add_parser("op", help="apply a series operation")
    p_op.add_argument("kind", choices=_OP_KINDS)
    p_op.add_argument("operands", nargs="+",
                      help="series JSON files or inline [a0,a1,...] lists")
    p_op.add_argument("--psi")
    p_op.add_argument("--i", type=int, default=1)
    p_op.add_argument("--j", type=int, default=0)
    p_op.add_argument("--chain", dest="chain_text")

    p_pascal = sub.add_parser("pascal", help="render the operator triangle")
    p_pascal.add_argument("--n", type=int, default=4)
    p_pascal.add_argument("--format", choices=("plain", "json"), default="plain")

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument("suite", choices=_SUITES + ("all",))
    p_check.add_argument("--psi")
    p_check.add_argument("--order", type=int, default=8)
    p_check.add_argument("--trials", type=int, default=25)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--format", choices=("plain", "json"), default="plain")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "seq":
            if args.n < 0:
                raise BadSpec("--n must be nonnegative")
            print(cmd_seq(args.psi, args.n, args.format))
            return 0
        if args.command == "op":
            print(cmd_op(args.kind, args.operands, args.psi, args.i, args.j,
                         args.chain_text))
            return 0
        if args.command == "pascal":
            if args.n < 0:
                raise BadSpec("--n must be nonnegative")
            if args.n > PASCAL_MAX_N:
                raise BadSpec(f"--n is at most {PASCAL_MAX_N}: the output doubles with each row")
            print(cmd_pascal(args.n, args.format))
            return 0
        if args.order < 2:
            raise BadSpec("order must be at least 2")
        if args.trials < 1:
            raise BadSpec("trial count must be at least 1")
        text, ok = cmd_check(args.suite, args.psi, args.order, args.trials, args.seed,
                             args.format)
        print(text)
        return 0 if ok else 1
    except (*_USAGE_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PsiCalcError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
