"""Randomized verification suites over the core identities.

Every check is one row of ``RULES``: the suite it belongs to, its name, a
test of whether it applies to a context, a draw of operands, and a check
that turns the operands into one report or a fixed tuple of reports.
The ``rules`` suite is one family over the table ``PRODUCT_RULES``: each
product rule is a rule name and its forms (report label, operator sum A,
star), and its check gives ``calculus.product_rule`` of every form on one
draw (f, g).  The ordinary rule has two forms, asterisk and star, and every
other rule one, labelled with its rule name; the sums are built once, as
the module loads.  ``run_suites`` runs each applicable rule's trials and
keeps the reports of its first failing trial, otherwise its last trial's.
The CLI surfaces these as its ``check`` command; the test suite reuses
them directly.

Determinism contract: each rule draws from its own generator, seeded with
the string ``"<seed>:<rule>:<kind>"`` (``random`` hashes a string seed
with SHA-512, whatever ``PYTHONHASHSEED`` is).  So a rule's draws depend
only on (seed, rule, kind, order, trials), never on computed values or on
the suites and sequences run before it: any report is reproduced by
running its suite over its sequence alone with the same flags.  The kind
is ``"q"`` for symbolic q and for every numeric q, so a run over ``q`` and
one over ``q=3/2`` consume identical draws, and the first, evaluated at
q = 3/2, gives the second's reports.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, NamedTuple

from . import calculus
from .calculus import RuleReport, compare
from .operator_algebra import ORDINARY, OperatorSum
from .psi_context import PsiContext, _power, get_context
from .series import WardSeries, constant, e_psi, make_series, monomial

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
    """The shared context of ``spec``, refused before any rule runs if ``order`` reaches too far.

    The checks read the sequence through index order + RULE_REACH, so that
    reach is refused up front, as any reader refuses it
    (``PsiContext._reach``): past a custom list's end, BoundExceeded.
    """
    ctx = get_context(spec)
    ctx._reach(order + RULE_REACH)
    return ctx


def random_series(ctx: PsiContext, order: int, rng: random.Random,
                  span: int = 5, invertible: bool = False) -> WardSeries:
    coeffs = list(map(rng.randint, [-span] * (order + 1), [span] * (order + 1)))
    if invertible and coeffs[0] == 0:
        coeffs[0] = rng.choice([-3, -2, -1, 1, 2, 3])
    return make_series(ctx, coeffs)


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


def _label(chain) -> str:
    return "".join(f"({i},{j})" for i, j in chain)


def _one_form(name, a, star):
    # a rule with one form, labelled with the rule's name
    return name, ((name, a, star),)


_FLAVORS = (("asterisk", False), ("star", True))
# The rules suite's product rules in report order, as (rule name, forms): each
# form (report label, asterisk operator sum A, star) is checked by
# ``calculus.product_rule`` on the rule's one draw (f, g).
PRODUCT_RULES = (
    *(_one_form(f"product.{flavor}({i},{j})", OperatorSum.single(((i, j),)), star)
      for i, j in RULE_PAIRS for flavor, star in _FLAVORS),
    ("product.ordinary", (("product.ordinary.asterisk_form", ORDINARY, False),
                          ("product.ordinary.star_form", ORDINARY, True))),
    *(_one_form(f"product.chain.{flavor}.{_label(chain)}", OperatorSum.single(chain), star)
      for chain in RULE_CHAINS for flavor, star in _FLAVORS),
    *(_one_form(f"product.boxplus.{flavor}.{p}+{r}",
                OperatorSum.single((p,)) + OperatorSum.single((r,)), star)
      for p, r in BOXPLUS_COMBOS for flavor, star in _FLAVORS),
)


# -- draws: (ctx, order, rng) -> operands ------------------------------------------


def _series(ctx, order, rng):
    return (random_series(ctx, order, rng),)


def _pair(ctx, order, rng):
    return random_series(ctx, order, rng), random_series(ctx, order, rng)


def _triple(ctx, order, rng):
    return _pair(ctx, order, rng) + _series(ctx, order, rng)


def _scaled_pair(ctx, order, rng):
    """f, g and an integer scalar 2..5."""
    return _pair(ctx, order, rng) + (ctx.from_rational(rng.randint(2, 5)),)


def _invertible(ctx, order, rng):
    """A series with an invertible constant term."""
    return (random_series(ctx, order, rng, invertible=True),)


def _over_invertible(ctx, order, rng):
    return _series(ctx, order, rng) + _invertible(ctx, order, rng)


def _monomials(ctx, order, rng):
    """x^a, x^b and x^(a+b) for a <= order/2 and a + b <= order."""
    a = rng.randint(0, order // 2)
    b = rng.randint(0, order - a)
    return monomial(ctx, a, order), monomial(ctx, b, order), monomial(ctx, a + b, order)


def _fixed(ctx, order, rng):
    """e_psi, x and 1 + x, to order at most 4."""
    w = min(order, 4)
    return e_psi(ctx, w), monomial(ctx, 1, w), make_series(ctx, [1, 1] + [0] * (w - 1))


def _triples(ctx, order, rng):
    """All triples of the fixed series, then five random ones."""
    w = min(order, 4)
    triples = list(product(_fixed(ctx, order, rng), repeat=3))
    for _ in range(5):
        triples.append((random_series(ctx, w, rng, span=3), random_series(ctx, w, rng, span=3),
                        random_series(ctx, w, rng, span=3)))
    return (triples,)


# -- checks: (rule, *operands, *args) -> report or tuple of reports ----------------


def _unit_law(rule, f, i, j, left):
    """e *_{i,j} f = e diag_l f and f *_{i,j} e = e diag_m f, for e the constant 1/F(i, j)."""
    ctx = f.ctx
    e = _power(ctx, ctx.fontane_kernel(i, j), -1)
    unit = constant(ctx, e, f.order)
    if left:
        return compare(rule, unit.fontane(f, i, j), f.diag_l(i, j).scale(e))
    return compare(rule, f.fontane(unit, i, j), f.diag_m(i, j).scale(e))


def _associator(f, g, h):
    return f.fontane(g, 1, 0).fontane(h, 1, 0), f.fontane(g.fontane(h, 1, 0), 1, 0)


def _commutator(f, g, h):
    return f.fontane(g, 1, 0), g.fontane(f, 1, 0)


def _search(rule, triples, sides, expected_equal):
    """The report of the first triple whose sides differ, else of the last.

    For an identity that is the first failure; for a witness of its
    failure (``expected_equal`` False), the first witness.
    """
    for triple in triples:
        report = compare(rule, *sides(*triple), expected_equal=expected_equal)
        if not report.equal:
            break
    return report


def _q_collapse(rule, f, g, j):
    """Over a q-analog, f *_{j+1,j} g = f *_{j+2,j} g = f *_{j+3,j} g."""
    first = f.fontane(g, j + 1, j)
    others = [f.fontane(g, j + 2, j), f.fontane(g, j + 3, j)]
    return compare(rule, first, next((o for o in others if o != first), others[-1]))


def _truncation(rule, f, g):
    small = f.order - 2
    return compare(rule, f.fontane(g, 2, 1).truncate(small),
                   f.truncate(small).fontane(g.truncate(small), 2, 1))


def _roundtrip(rule, f, g):
    """Df = (f/g) *_{1,0} Dg + D(f/g) g, the product rule read backwards."""
    h = f.divide(g)
    return compare(rule, f.derivative(), h.chain(g.derivative(), ((1, 0),)) + h.derivative() * g)


def _product_rules(rule, f, g, forms):
    return tuple([calculus.product_rule(label, a, f, g, star) for label, a, star in forms])


def _always(ctx, order, *args):
    return True


def _q_analog(ctx, order, *args):
    return ctx.q_scalar is not None


def _laws(ctx, order) -> tuple:
    """(associative, commutative): the laws *_{1,0} obeys on series of order w = min(order, 4).

    x^a *_{1,0} x^b = F(a+b+1, a) x^(a+b) and the product is bilinear, so a
    law holds on those series iff it holds on the monomials of degree at
    most w.  That is a fact of the products, where whether the sequence is
    0, 1, 2, ... is one of the spec: over q = 0 the product is associative
    too.
    """
    w = min(order, 4)
    r = range(w + 1)

    def m(a, b):  # x^a *_{1,0} x^b = m(a, b) x^(a+b)
        return ctx.fontane_kernel(a + b + 1, a)

    return (all(m(a, b) * m(a + b, c) == m(b, c) * m(a, b + c)
                for a, b, c in product(r, r, r) if a + b + c <= w),
            all(m(a, b) == m(b, a) for a, b in product(r, r) if a + b <= w))


def _law(index, holds):
    # applies where law ``index`` of ``_laws`` holds, or where it fails
    return lambda ctx, order, *args: _laws(ctx, order)[index] is holds


class Rule(NamedTuple):
    suite: str
    name: str  # with the seed and the context's kind, seeds the rule's draws
    applies: Callable  # (ctx, order, *args) -> bool
    draw: Callable
    check: Callable
    args: tuple = ()
    once: bool = False  # a search over its own operand list runs one trial


# In report order.  The checks look up ``calculus`` functions when they run,
# so that a test can replace one.
RULES = (
    *(Rule("rings", f"ring.unit.{side}({i},{j})",
           lambda ctx, order, i, j, left: bool(ctx.fontane_kernel(i, j)), _series, _unit_law,
           (i, j, side == "left"))
      for i, j in RULE_PAIRS for side in ("left", "right")),
    Rule("rings", "ring.unit.left_identity(2,0)", _always, _series,
         lambda rule, f: compare(rule, constant(f.ctx, 1, f.order).fontane(f, 2, 0), f)),
    Rule("rings", "ring.distributive.right", _always, _triple,
         lambda rule, f, g, h: compare(rule, f.fontane(g + h, 2, 1),
                                       f.fontane(g, 2, 1) + f.fontane(h, 2, 1))),
    Rule("rings", "ring.distributive.left", _always, _triple,
         lambda rule, f, g, h: compare(rule, (f + g).fontane(h, 2, 1),
                                       f.fontane(h, 2, 1) + g.fontane(h, 2, 1))),
    Rule("rings", "ring.bilinear.left", _always, _scaled_pair,
         lambda rule, f, g, a: compare(rule, f.scale(a).fontane(g, 2, 1),
                                       f.fontane(g, 2, 1).scale(a))),
    Rule("rings", "ring.bilinear.right", _always, _scaled_pair,
         lambda rule, f, g, a: compare(rule, f.fontane(g.scale(a), 2, 1),
                                       f.fontane(g, 2, 1).scale(a))),
    Rule("rings", "ring.monomial_product", _always, _monomials,
         lambda rule, xa, xb, xab: compare(rule, xa * xb, xab)),
    # associativity and commutativity of *_{1,0}: identities where the
    # products obey them (``_laws``), inequalities (witness demanded) otherwise
    Rule("rings", "ring.associative", _law(0, True), _triples, _search, (_associator, True),
         once=True),
    Rule("rings", "ring.commutative", _law(1, True), _fixed,
         lambda rule, f, g, h: compare(rule, *_commutator(f, g, h)), once=True),
    Rule("rings", "ring.non_associative_witness", _law(0, False), _triples, _search,
         (_associator, False), once=True),
    Rule("rings", "ring.non_commutative_witness", _law(1, False), _triples, _search,
         (_commutator, False), once=True),
    *(Rule("rings", f"ring.opposite.{_label(chain)}", _always, _pair,
           lambda rule, f, g, chain: compare(rule, f.chain(g, chain),
                                             g.chain(f, chain, star=True)), (chain,))
      for chain in RULE_CHAINS[:3]),
    *(Rule("rings", f"ring.q_collapse.j={j}", _q_analog, _pair, _q_collapse, (j,))
      for j in (0, 1)),
    Rule("rings", "ring.truncation.fontane", _always, _pair, _truncation),
    Rule("rings", "ring.divide_roundtrip", _always, _over_invertible,
         lambda rule, f, g: compare(rule, f.divide(g) * g, f)),
    *(Rule("rules", name, _always, _pair, _product_rules, (forms,))
      for name, forms in PRODUCT_RULES),
    *(Rule("leibniz", f"leibniz.n={n}", lambda ctx, order, n: n < order, _pair,
           lambda rule, f, g, n: calculus.general_leibniz_report(f, g, n), (n,))
      for n in range(1, 5)),
    Rule("quotient", "quotient", _always, _over_invertible,
         lambda rule, f, g: calculus.quotient_rule_report(f, g)),
    Rule("quotient", "reciprocal", _always, _invertible,
         lambda rule, g: calculus.reciprocal_rule_report(g)),
    Rule("quotient", "quotient.roundtrip", _always, _over_invertible, _roundtrip),
    Rule("quotient", "quotient.q_display", _q_analog, _over_invertible,
         lambda rule, f, g: calculus.quotient_q_display_reports(f, g)),
)


def _run(rule: Rule, ctx: PsiContext, order: int, trials: int, seed: int):
    """The reports of the rule's first failing trial, otherwise of its last."""
    rng = random.Random(f"{seed}:{rule.name}:{ctx.kind}")
    for _ in range(1 if rule.once else trials):
        reports = rule.check(rule.name, *rule.draw(ctx, order, rng), *rule.args)
        if isinstance(reports, RuleReport):
            reports = (reports,)
        if not all(r.ok for r in reports):
            break
    return reports


def run_suites(suites, specs, order: int, trials: int, seed: int) -> list[RuleReport]:
    reports: list[RuleReport] = []
    for spec in specs:
        ctx = context_for(spec, order)
        for suite in suites:
            for rule in RULES:
                if rule.suite == suite and rule.applies(ctx, order, *rule.args):
                    reports.extend(_run(rule, ctx, order, trials, seed))
    return reports
