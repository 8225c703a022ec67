"""Randomized verification suites over the core identities.

Each suite runs a fixed battery of identity checks over one context with
seeded random series and returns one ``RuleReport`` per check: the first
failing trial's report when a check fails, otherwise the last trial's.
The CLI surfaces these as its ``check`` command; the test suite reuses
them directly.

Determinism contract: the sequence of random draws depends only on
(order, trials) and the context's branch-relevant traits (q-analog or
not, classical or not), never on computed values.  Runs over the
symbolic-q context and over a numeric q therefore consume identical
draws, which is what makes the specialization comparison in
``paired_specialization_check`` meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import calculus
from .calculus import RuleReport, compare
from .coefficients import scalar_eval
from .errors import BadSpec, echo
from .psi_context import PsiContext, get_context
from .series import (
    WardSeries,
    constant,
    e_psi,
    make_series,
    monomial,
    mul_ordinary,
)

SUITE_NAMES = ("rings", "rules", "leibniz", "quotient")


def custom_values(bound: int) -> list[int]:
    """The default custom sequence 0, 1, 2, 1, 3, 1, 4, 1, 5, ... up to bound."""
    return [0, 1] + [(n // 2 + 1) if n % 2 == 0 else 1 for n in range(2, bound + 1)]


def custom_spec(bound: int) -> str:
    return "custom:[" + ",".join(str(v) for v in custom_values(bound)) + "]"


def default_specs(order: int) -> tuple[str, ...]:
    """The five sequences a check runs over when none is named."""
    return ("natural", "q", "q=3/2", "fib", custom_spec(order + RULE_REACH))


def context_for(spec: str, order: int) -> PsiContext:
    ctx = get_context(spec)
    need = order + RULE_REACH
    if ctx.bound is not None and ctx.bound < need:
        raise BadSpec(
            f"sequence {echo(spec)} is too short for order {order} checks "
            f"(needs bound {need}, has {ctx.bound})"
        )
    return ctx


def random_series(ctx: PsiContext, order: int, rng: random.Random,
                  span: int = 5, invertible: bool = False) -> WardSeries:
    coeffs = [rng.randint(-span, span) for _ in range(order + 1)]
    if invertible and coeffs[0] == 0:
        coeffs[0] = rng.choice([-3, -2, -1, 1, 2, 3])
    return make_series(ctx, coeffs)


def _scalar_inv(ctx: PsiContext, value):
    return ctx.one / value if ctx.symbolic else Fraction(1) / value


def _worst(make_one, trials: int) -> RuleReport:
    report = None
    for t in range(trials):
        report = make_one(t)
        if not report.ok:
            return report
    return report


RULE_PAIRS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
RULE_CHAINS = (
    ((1, 0),),
    ((2, 1),),
    ((1, 0), (2, 0)),
    ((2, 1), (3, 2)),
    ((1, 0), (2, 1), (3, 2)),
)
BOXPLUS_COMBOS = (((1, 0), (2, 1)), ((2, 0), (3, 1)))
# how far past the series order a check may read kernel rows: one shift
# past the largest pair index
RULE_REACH = 1 + max(i for i, _ in RULE_PAIRS)


def suite_rings(ctx: PsiContext, order: int, trials: int, rng: random.Random) -> list[RuleReport]:
    reports: list[RuleReport] = []
    is_q = ctx.q_scalar is not None

    unit_pairs = [p for p in RULE_PAIRS if ctx.fontane_kernel(*p)]

    for i, j in unit_pairs:
        kernel = ctx.fontane_kernel(i, j)
        e = _scalar_inv(ctx, kernel)

        def left_unit(t, i=i, j=j, e=e):
            f = random_series(ctx, order, rng)
            e_series = constant(ctx, e, order)
            return compare(
                f"ring.unit.left({i},{j})",
                e_series.fontane(f, i, j),
                f.diag_l(i, j).scale(e),
            )

        def right_unit(t, i=i, j=j, e=e):
            f = random_series(ctx, order, rng)
            e_series = constant(ctx, e, order)
            return compare(
                f"ring.unit.right({i},{j})",
                f.fontane(e_series, i, j),
                f.diag_m(i, j).scale(e),
            )

        reports.append(_worst(left_unit, trials))
        reports.append(_worst(right_unit, trials))

    def unit_identity(t):
        f = random_series(ctx, order, rng)
        one = constant(ctx, 1, order)
        return compare("ring.unit.left_identity(2,0)", one.fontane(f, 2, 0), f)

    reports.append(_worst(unit_identity, trials))

    def distributive_right(t):
        f, g, h = (random_series(ctx, order, rng) for _ in range(3))
        return compare(
            "ring.distributive.right",
            f.fontane(g + h, 2, 1),
            f.fontane(g, 2, 1) + f.fontane(h, 2, 1),
        )

    def distributive_left(t):
        f, g, h = (random_series(ctx, order, rng) for _ in range(3))
        return compare(
            "ring.distributive.left",
            (f + g).fontane(h, 2, 1),
            f.fontane(h, 2, 1) + g.fontane(h, 2, 1),
        )

    def bilinear_left(t):
        f, g = (random_series(ctx, order, rng) for _ in range(2))
        alpha = ctx.from_int(rng.randint(2, 5))
        return compare(
            "ring.bilinear.left",
            f.scale(alpha).fontane(g, 2, 1),
            f.fontane(g, 2, 1).scale(alpha),
        )

    def bilinear_right(t):
        f, g = (random_series(ctx, order, rng) for _ in range(2))
        alpha = ctx.from_int(rng.randint(2, 5))
        return compare(
            "ring.bilinear.right",
            f.fontane(g.scale(alpha), 2, 1),
            f.fontane(g, 2, 1).scale(alpha),
        )

    def monomial_product(t):
        a = rng.randint(0, order // 2)
        b = rng.randint(0, order - a)
        return compare(
            "ring.monomial_product",
            mul_ordinary(monomial(ctx, a, order), monomial(ctx, b, order)),
            monomial(ctx, a + b, order),
        )

    reports.append(_worst(distributive_right, trials))
    reports.append(_worst(distributive_left, trials))
    reports.append(_worst(bilinear_left, trials))
    reports.append(_worst(bilinear_right, trials))
    reports.append(_worst(monomial_product, trials))

    # associativity and commutativity of *_{1,0}: identities in the classical
    # case, inequalities (witness demanded) otherwise
    w_order = min(order, 4)
    candidates = [
        e_psi(ctx, w_order),
        monomial(ctx, 1, w_order),
        make_series(ctx, [1, 1] + [0] * (w_order - 1)),
    ]
    triples = [(f, g, h) for f in candidates for g in candidates for h in candidates]
    for _ in range(5):
        triples.append(tuple(random_series(ctx, w_order, rng, span=3) for _ in range(3)))
    if ctx.is_classical:
        assoc = None
        for f, g, h in triples:
            assoc = compare(
                "ring.associative",
                f.fontane(g, 1, 0).fontane(h, 1, 0),
                f.fontane(g.fontane(h, 1, 0), 1, 0),
            )
            if not assoc.ok:
                break
        reports.append(assoc)
        comm = compare(
            "ring.commutative",
            candidates[0].fontane(candidates[1], 1, 0),
            candidates[1].fontane(candidates[0], 1, 0),
        )
        reports.append(comm)
    else:
        witness = None
        for f, g, h in triples:
            witness = compare(
                "ring.non_associative_witness",
                f.fontane(g, 1, 0).fontane(h, 1, 0),
                f.fontane(g.fontane(h, 1, 0), 1, 0),
                expected_equal=False,
            )
            if witness.ok:
                break
        reports.append(witness)
        comm_witness = None
        for f, g, _ in triples:
            comm_witness = compare(
                "ring.non_commutative_witness",
                f.fontane(g, 1, 0),
                g.fontane(f, 1, 0),
                expected_equal=False,
            )
            if comm_witness.ok:
                break
        reports.append(comm_witness)

    for chain in RULE_CHAINS[:3]:
        label = "".join(f"({i},{j})" for i, j in chain)

        def opposite(t, chain=chain, label=label):
            f, g = (random_series(ctx, order, rng) for _ in range(2))
            return compare(
                f"ring.opposite.{label}",
                f.chain(g, chain),
                g.chain(f, chain, star=True),
            )

        reports.append(_worst(opposite, trials))

    if is_q:
        for j in (0, 1):

            def collapse(t, j=j):
                f, g = (random_series(ctx, order, rng) for _ in range(2))
                first = f.fontane(g, j + 1, j)
                others = [f.fontane(g, j + 2, j), f.fontane(g, j + 3, j)]
                bad = next((o for o in others if o != first), others[-1])
                return compare(f"ring.q_collapse.j={j}", first, bad)

            reports.append(_worst(collapse, trials))

    def truncation_fontane(t):
        f, g = (random_series(ctx, order, rng) for _ in range(2))
        small = order - 2
        return compare(
            "ring.truncation.fontane",
            f.fontane(g, 2, 1).truncate(small),
            f.truncate(small).fontane(g.truncate(small), 2, 1),
        )

    def divide_roundtrip(t):
        f = random_series(ctx, order, rng)
        g = random_series(ctx, order, rng, invertible=True)
        return compare(
            "ring.divide_roundtrip", mul_ordinary(f.divide(g), g), f
        )

    reports.append(_worst(truncation_fontane, trials))
    reports.append(_worst(divide_roundtrip, trials))
    return reports


def suite_rules(ctx: PsiContext, order: int, trials: int, rng: random.Random) -> list[RuleReport]:
    reports: list[RuleReport] = []

    for i, j in RULE_PAIRS:

        def asterisk(t, i=i, j=j):
            f, g = (random_series(ctx, order, rng) for _ in range(2))
            return calculus.product_rule_asterisk(f, g, i, j)

        def star(t, i=i, j=j):
            f, g = (random_series(ctx, order, rng) for _ in range(2))
            return calculus.product_rule_star(f, g, i, j)

        reports.append(_worst(asterisk, trials))
        reports.append(_worst(star, trials))

    state = {}

    def ordinary_both(t):
        f, g = (random_series(ctx, order, rng) for _ in range(2))
        first, second = calculus.product_rule_ordinary(f, g)
        state["second"] = second if not second.ok else state.get("second", second)
        return first

    reports.append(_worst(ordinary_both, trials))
    reports.append(state["second"])

    for chain in RULE_CHAINS:
        for star_flavor in (False, True):

            def chain_rule(t, chain=chain, star_flavor=star_flavor):
                f, g = (random_series(ctx, order, rng) for _ in range(2))
                return calculus.product_rule_chain(f, g, chain, star=star_flavor)

            reports.append(_worst(chain_rule, trials))

    for first, second in BOXPLUS_COMBOS:
        for star_flavor in (False, True):

            def boxplus_rule(t, first=first, second=second, star_flavor=star_flavor):
                f, g = (random_series(ctx, order, rng) for _ in range(2))
                return calculus.product_rule_boxplus(f, g, first, second, star=star_flavor)

            reports.append(_worst(boxplus_rule, trials))

    return reports


def suite_leibniz(ctx: PsiContext, order: int, trials: int, rng: random.Random) -> list[RuleReport]:
    reports: list[RuleReport] = []
    for n in range(1, min(4, order - 1) + 1):

        def leibniz(t, n=n):
            f, g = (random_series(ctx, order, rng) for _ in range(2))
            return calculus.general_leibniz_report(f, g, n)

        reports.append(_worst(leibniz, trials))
    return reports


def suite_quotient(ctx: PsiContext, order: int, trials: int, rng: random.Random) -> list[RuleReport]:
    reports: list[RuleReport] = []
    is_q = ctx.q_scalar is not None

    def quotient(t):
        f = random_series(ctx, order, rng)
        g = random_series(ctx, order, rng, invertible=True)
        return calculus.quotient_rule_report(f, g)

    def reciprocal(t):
        g = random_series(ctx, order, rng, invertible=True)
        return calculus.reciprocal_rule_report(g)

    def roundtrip(t):
        # Df = (f/g) *_{1,0} Dg + D(f/g) g, the product rule read backwards
        f = random_series(ctx, order, rng)
        g = random_series(ctx, order, rng, invertible=True)
        h = f.divide(g)
        return compare(
            "quotient.roundtrip",
            f.derivative(),
            h.chain(g.derivative(), ((1, 0),)) + h.derivative() * g,
        )

    reports.append(_worst(quotient, trials))
    reports.append(_worst(reciprocal, trials))
    reports.append(_worst(roundtrip, trials))

    if is_q:
        state = {}

        def q_display_first(t):
            f = random_series(ctx, order, rng)
            g = random_series(ctx, order, rng, invertible=True)
            first, second = calculus.quotient_q_display_reports(f, g)
            state["second"] = second if not second.ok else state.get("second", second)
            return first

        reports.append(_worst(q_display_first, trials))
        reports.append(state["second"])

    return reports


_SUITES = {
    "rings": suite_rings,
    "rules": suite_rules,
    "leibniz": suite_leibniz,
    "quotient": suite_quotient,
}


def run_suites(suites, specs, order: int, trials: int, seed: int) -> list[RuleReport]:
    rng = random.Random(seed)
    reports: list[RuleReport] = []
    for spec in specs:
        ctx = context_for(spec, order)
        for name in suites:
            reports.extend(_SUITES[name](ctx, order, trials, rng))
    return reports


def evaluate_series_at(f: WardSeries, point, target_ctx: PsiContext) -> WardSeries:
    """Map a symbolic-q series onto a numeric context by evaluating q."""
    return WardSeries(target_ctx, [scalar_eval(c, point) for c in f.coeffs])


def paired_specialization_check(order: int, trials: int, seed: int,
                                suites=SUITE_NAMES) -> tuple[bool, list[str]]:
    """Run every suite symbolically and at q = 3/2; compare after evaluation.

    Returns (ok, mismatch descriptions).  Both runs consume identical random
    draws, so reports pair up one-to-one.
    """
    point = Fraction(3, 2)
    sym = run_suites(suites, ("q",), order, trials, seed)
    num = run_suites(suites, ("q=3/2",), order, trials, seed)
    target = get_context("q=3/2")
    problems: list[str] = []
    if len(sym) != len(num):
        return False, ["suite shapes differ between symbolic and numeric runs"]
    for rs, rn in zip(sym, num):
        if rs.rule != rn.rule:
            problems.append(f"rule order diverged: {rs.rule} vs {rn.rule}")
            continue
        if rs.equal != rn.equal or rs.ok != rn.ok:
            problems.append(f"{rs.rule}: verdicts differ (symbolic vs numeric)")
            continue
        for side in ("lhs", "rhs"):
            spec_side = evaluate_series_at(getattr(rs, side), point, target)
            if spec_side != getattr(rn, side):
                problems.append(f"{rs.rule}: {side} does not specialize to the q=3/2 run")
    return not problems, problems
