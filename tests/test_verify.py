import random

import pytest

from psicalc.errors import BoundExceeded
from psicalc.psi_context import get_context
from psicalc.series import monomial
from psicalc.verify import (
    SUITE_NAMES,
    _laws,
    context_for,
    custom_spec,
    custom_values,
    default_specs,
    random_series,
    run_suites,
)


def test_custom_values_pattern():
    assert custom_values(8) == [0, 1, 2, 1, 3, 1, 4, 1, 5]
    ctx = get_context(custom_spec(8), 0)
    assert ctx.bound == 8
    assert ctx.psi_value(6) == 4


def test_default_specs_cover_all_kinds():
    specs = default_specs(10)
    assert specs[:4] == ("natural", "q", "q=3/2", "fib")
    assert specs[4].startswith("custom:")


def test_context_for_shares_context():
    assert context_for("fib", 6) is get_context("fib")
    with pytest.raises(BoundExceeded):
        context_for("custom:[0,1,2]", 6)


def test_random_series_is_seed_deterministic():
    ctx = get_context("fib", 10)
    a = random_series(ctx, 6, random.Random(5))
    b = random_series(ctx, 6, random.Random(5))
    assert a == b
    assert a.order == 6
    g = random_series(ctx, 6, random.Random(6), invertible=True)
    assert g.coeffs[0] != 0


def test_run_suites_is_deterministic_and_green():
    first = run_suites(("rings", "quotient"), ("fib",), 6, 3, 42)
    second = run_suites(("rings", "quotient"), ("fib",), 6, 3, 42)
    assert all(r.ok for r in first)
    assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]


def test_witness_polarity_tracks_classical_kind():
    natural = {r.rule for r in run_suites(("rings",), ("natural",), 5, 2, 1)}
    fib = {r.rule for r in run_suites(("rings",), ("fib",), 5, 2, 1)}
    assert "ring.associative" in natural and "ring.commutative" in natural
    assert "ring.non_associative_witness" in fib
    assert "ring.non_commutative_witness" in fib


@pytest.mark.parametrize("order", (2, 3, 4, 8))
def test_ring_laws_agree_with_the_classical_kind_on_the_default_specs(order):
    # where the spec says 0, 1, 2, ..., *_{1,0} is associative and
    # commutative, and on the other default sequences it is neither
    for spec in default_specs(order):
        ctx = context_for(spec, order)
        classical = all(ctx.psi_value(n) == n for n in range(13))
        assert _laws(ctx, order) == (classical, classical), spec


@pytest.mark.parametrize("spec, laws", [
    ("q=0", (True, False)), ("q=1", (True, True)), ("q=2", (False, False)),
    ("custom:[0,1,1,1,1,1,1,1]", (True, False)), ("custom:[0,1,2,3,4,5,99,7]", (True, True)),
    ("custom:[0,1,2,3,99,5,6,7]", (False, False)),
])
def test_ring_laws_read_off_the_kernel(spec, laws):
    # the monomial test against the products themselves, on every triple of monomials
    ctx = context_for(spec, 3)
    assert _laws(ctx, 3) == laws
    xs = [monomial(ctx, a, 3) for a in range(4)]
    assert all(a.fontane(b, 1, 0).fontane(c, 1, 0) == a.fontane(b.fontane(c, 1, 0), 1, 0)
               for a in xs for b in xs for c in xs) is laws[0]
    assert all(a.fontane(b, 1, 0) == b.fontane(a, 1, 0) for a in xs for b in xs) is laws[1]


def test_two_report_rules_take_both_reports_from_one_trial():
    # both reports of a pair compare against the same left side, D(fg) or D(f/g)
    reports = {r.rule: r for r in run_suites(("rules", "quotient"), ("q=3/2",), 6, 3, 1)}
    for first, second in (("product.ordinary.asterisk_form", "product.ordinary.star_form"),
                          ("quotient.q_display.dilated_g", "quotient.q_display.plain_g")):
        assert reports[first].lhs == reports[second].lhs


def test_each_suite_and_spec_draws_alone():
    # a report of a full run equals the one its suite gives over its spec alone
    specs = default_specs(4)
    full = run_suites(SUITE_NAMES, specs, 4, 2, 1)
    alone = [r for spec in specs for suite in SUITE_NAMES
             for r in run_suites((suite,), (spec,), 4, 2, 1)]
    assert [r.to_json_dict() for r in full] == [r.to_json_dict() for r in alone]
