import contextlib
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psicalc
from psicalc import calculus
from psicalc.calculus import compare
from psicalc.cli import PASCAL_MAX_N, main
from psicalc.errors import ECHO_LIMIT
from psicalc.psi_context import get_context
from psicalc.series import WardSeries, constant, make_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- seq --------------------------------------------------------------------------


def test_seq_fib_table(capsys):
    code, out, _ = run_cli(capsys, "seq", "--psi", "fib", "--n", "6")
    assert code == 0
    assert "psi:  0, 1, 1, 2, 3, 5, 8" in out
    assert "fact: 1, 1, 1, 2, 6, 30, 240" in out
    assert "n=4: 1, 1, 2, 1" in out  # kernel row


def test_seq_q_symbolic(capsys):
    code, out, _ = run_cli(capsys, "seq", "--psi", "q", "--n", "3")
    assert code == 0
    assert "1+q+q^2" in out


def test_seq_json_is_structured(capsys):
    code, out, _ = run_cli(capsys, "seq", "--psi", "natural", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["psi"] == "natural"
    assert data["values"] == ["0", "1", "2", "3", "4"]
    assert data["binomials"][4] == ["1", "4", "6", "4", "1"]
    assert data["kernels"][3] == ["1", "1", "1", "1"]


def test_seq_interior_zero_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "seq", "--psi", "custom:[0,1,0,2]", "--n", "3")
    assert code == 2
    assert "zero" in err


def test_seq_unknown_spec(capsys):
    code, _, err = run_cli(capsys, "seq", "--psi", "bogus", "--n", "3")
    assert code == 2
    assert "error" in err


# -- op ---------------------------------------------------------------------------


def test_op_derive_fib_monomial(capsys):
    code, out, _ = run_cli(capsys, "op", "derive", "[0,0,0,0,6]", "--psi", "fib")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == ["0", "0", "0", "6"]


def test_op_fontane_at_q2_is_dilated_product(capsys, tmp_path):
    ctx = get_context("q=2", 8)
    f = make_series(ctx, [1, 3, 0, 2, 1])
    g = make_series(ctx, [2, 0, 1, 1, 1])
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps(f.to_json_dict()))
    gp.write_text(json.dumps(g.to_json_dict()))
    code, out, _ = run_cli(capsys, "op", "fontane", str(fp), str(gp), "--i", "1", "--j", "0")
    assert code == 0
    got = WardSeries.from_json_dict(json.loads(out))
    want = f.dilate(2) * g
    assert got.coeffs == want.coeffs


def test_op_chain_flag(capsys):
    code, out, _ = run_cli(
        capsys, "op", "chain", "[1,1,1]", "[1,0,1]", "--psi", "fib",
        "--chain", "[(2,1),(1,0)]",
    )
    assert code == 0
    data = json.loads(out)
    ctx = get_context("fib", 4)
    f = make_series(ctx, [1, 1, 1])
    g = make_series(ctx, [1, 0, 1])
    want = f.chain(g, ((2, 1), (1, 0)))
    assert data["coeffs"] == [str(c) for c in want.coeffs]


def test_op_div_zero_constant_term_fails(capsys):
    code, _, err = run_cli(capsys, "op", "div", "[1,1]", "[0,1]", "--psi", "natural")
    assert code == 1
    assert "constant term" in err


def test_op_inline_without_psi_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "op", "mul", "[1]", "[1]")
    assert code == 2
    assert "--psi" in err


def test_op_mismatched_specs_rejected(capsys, tmp_path):
    a = make_series(get_context("fib", 4), [1, 1])
    b = make_series(get_context("natural", 4), [1, 1])
    ap, bp = tmp_path / "a.json", tmp_path / "b.json"
    ap.write_text(json.dumps(a.to_json_dict()))
    bp.write_text(json.dumps(b.to_json_dict()))
    code, _, err = run_cli(capsys, "op", "mul", str(ap), str(bp))
    assert code == 2
    assert "disagree" in err


def test_op_spellings_of_one_spec_agree(capsys, tmp_path):
    f = make_series(get_context("q=3/2"), [1, 2, 3])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json_dict()))
    code, out, err = run_cli(capsys, "op", "mul", str(path), "[1,1,1]", "--psi", "q=6/4")
    assert code == 0, err
    expected = f * make_series(f.ctx, [1, 1, 1])
    assert WardSeries.from_json_dict(json.loads(out)) == expected
    data = f.to_json_dict()
    data["psi"] = " q=6/4"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "op", "mul", str(path), "[1,1,1]", "--psi", "q=3/2")
    assert code == 0, err
    assert json.loads(out)["psi"] == "q=3/2"


def test_op_missing_file(capsys):
    code, _, err = run_cli(capsys, "op", "derive", "nope.json")
    assert code == 2


def test_op_bad_chain_text(capsys):
    # a chain is a list or tuple literal: a dict's keys or a set are no chain, nor is
    # an empty dict the empty chain
    for text in ("pairs?", "{}", "{(2,1): 0}", "{(2,1)}"):
        code, out, err = run_cli(capsys, "op", "chain", "[1]", "[1]", "--psi", "fib",
                                 "--chain", text)
        assert (code, out, err) == (2, "", f"error: cannot parse chain {text!r}\n")


@pytest.mark.parametrize("chain", ("[(1.5,0)]", "[(1e400,0)]", "[(True,False)]", "[(2,True)]"))
def test_op_non_integer_chain_index_is_usage_error(capsys, chain):
    # none is read as an int: 1.5 is not (1, 0), 1e400 is inf, and True,
    # an int subclass, is not the index 1
    code, out, err = run_cli(capsys, "op", "chain", "[1,2]", "[3,4]", "--psi", "fib",
                             "--chain", chain)
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


# a CI output pin: test "$(psicalc <args> | sha256sum | cut -d' ' -f1)" = <sha256>
CI_PIN = re.compile(r"""\$\((?:timeout \d+ )?psicalc (.+) \| sha256sum \| cut -d' ' -f1\)" = (\w{64})$""")


def test_the_ci_output_pins_hold(capsys):
    # each pin of the workflow's smoke step, run through main: stdout hashes as pinned
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    pins = [m.groups() for m in map(CI_PIN.search, workflow.read_text().splitlines()) if m]
    assert len(pins) >= 30
    for args, digest in pins:
        _, out, _ = run_cli(capsys, *shlex.split(args))
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_op_wrong_operand_count(capsys):
    code, _, err = run_cli(capsys, "op", "mul", "[1]", "--psi", "fib")
    assert code == 2


@pytest.mark.parametrize("spec", ("natural", "fib", "q=3/2", "q"))
def test_op_order_zero_inline_operands(capsys, spec):
    code, out, err = run_cli(capsys, "op", "mul", "[5]", "[3]", "--psi", spec)
    assert code == 0, err
    data = json.loads(out)
    assert data["order"] == 0
    ctx = get_context(spec, 1)
    assert WardSeries.from_json_dict(data, ctx=ctx) == make_series(ctx, [15])


def test_op_symbolic_coefficient_over_a_plain_spec_is_usage_error(capsys):
    # the JSON reader refuses a rational function of q over a plain spec before any series is built
    code, out, err = run_cli(capsys, "op", "mul", '[{"num":["1"],"den":["1"]}]', "[1]",
                             "--psi", "natural")
    assert (code, out) == (2, "")
    assert err == "error: symbolic coefficient given for a plain rational sequence\n"


@pytest.mark.parametrize("drop", ("order", "coeffs", "psi"))
def test_op_series_file_missing_key_is_usage_error(capsys, tmp_path, drop):
    data = make_series(get_context("fib", 4), [1, 2, 3]).to_json_dict()
    del data[drop]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "op", "derive", str(path))
    assert code == 2
    assert err.startswith("error:") and drop in err


@pytest.mark.parametrize("field, value", (("order", "2"), ("order", True), ("psi", ["fib"])))
def test_op_series_file_bad_header_is_usage_error(capsys, tmp_path, field, value):
    data = make_series(get_context("fib", 4), [1, 2, 3]).to_json_dict()
    data[field] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "op", "derive", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_op_boolean_coefficient_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "op", "mul", "[true,2]", "[1,2]", "--psi", "natural")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("spec,kind", [
    pytest.param(spec, kind, id=spec if kind == "fontane" else f"{kind}-{spec}")
    for kind in ("fontane", "star", "chain") for spec in ("custom:[0,1,2]", "q=-1")])
def test_op_sequence_too_short_or_zero_is_usage_error(capsys, spec, kind):
    # the custom list ends before F(4, 0); q = -1 makes s_2 = 0 while the
    # tables grow to index 2
    i = "3" if spec.startswith("custom:") else "1"
    pairs = ("--chain", f"[({i},0),(1,0)]") if kind == "chain" else ("--i", i, "--j", "0")
    code, out, err = run_cli(capsys, "op", kind, "[1,2]", "[3,4]", "--psi", spec, *pairs)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_op_undecodable_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "op", "derive", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("den", (["0"], []))
@pytest.mark.parametrize("where", ("file", "inline"))
def test_op_zero_denominator_is_usage_error(capsys, tmp_path, where, den):
    coeffs = [{"num": ["1"], "den": den}, "2"]
    operand = json.dumps(coeffs)
    if where == "file":
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"psi": "q", "order": 1, "coeffs": coeffs}))
        operand = str(path)
    code, out, err = run_cli(capsys, "op", "mul", operand, "[3,4]", "--psi", "q")
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


DEEP = "[" * 5000 + "]" * 5000
LONG_INT = "[" + "7" * 5000 + "]"  # past Python's int-string digit limit


@pytest.mark.parametrize("text", (DEEP, LONG_INT))
@pytest.mark.parametrize("where", ("file", "inline"))
def test_op_unreadable_json_is_usage_error(capsys, tmp_path, where, text):
    operand = text
    if where == "file":
        path = tmp_path / "f.json"
        path.write_text(text)
        operand = str(path)
    code, out, err = run_cli(capsys, "op", "derive", operand, "--psi", "natural")
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


@contextlib.contextmanager
def any_int_length():
    # the test's own conversions of long integers, after the CLI has run
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="interpreter without an int-string digit limit")


@needs_digit_limit
@pytest.mark.parametrize("spec,n", (("fib", 205), ("q=3/2", 134)))
def test_seq_prints_integers_past_the_digit_limit(capsys, spec, n):
    # the smallest n whose table has an integer of more than 4300 digits
    code, out, err = run_cli(capsys, "seq", "--psi", spec, "--n", str(n), "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert max(len(x) for row in data["binomials"] + [data["factorials"]] for x in row) > 4300
    with any_int_length():
        assert data["factorials"][-1] == str(get_context(spec).psi_factorial(n))


@needs_digit_limit
def test_op_prints_integers_past_the_digit_limit(capsys):
    big = "9" * 3000  # each input fits the limit, their product does not
    code, out, _ = run_cli(capsys, "op", "mul", f"[{big}]", f"[{big}]", "--psi", "natural")
    assert code == 0
    with any_int_length():
        assert json.loads(out)["coeffs"] == [str(int(big) ** 2)]
    # the limit still guards what is read
    code, out, err = run_cli(capsys, "op", "derive", LONG_INT, "--psi", "natural")
    assert code == 2 and out == ""


@pytest.mark.parametrize("where", ("file", "inline"))
def test_error_lines_echo_a_bounded_part_of_the_input(capsys, tmp_path, where):
    deep = "[" * 3000 + "]" * 3000
    operand = deep
    if where == "file":
        path = tmp_path / "f.json"
        # nested under the decoder's limit, so the coefficient itself is refused
        path.write_text(json.dumps({"psi": "natural", "order": 0,
                                    "coeffs": [json.loads("[" * 900 + "]" * 900)]}))
        operand = str(path)
    code, out, err = run_cli(capsys, "op", "derive", operand, "--psi", "natural")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err) < 2 * ECHO_LIMIT + len(operand if where == "file" else "") + 80


def test_error_lines_print_a_file_path_as_given(capsys, tmp_path):
    path = tmp_path / ("d" * 100) / "not-json.txt"
    path.parent.mkdir()
    path.write_text("plain text")
    code, out, err = run_cli(capsys, "op", "derive", str(path), "--psi", "natural")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: not a JSON series file")


@pytest.mark.parametrize("where", ("inline", "file", "symbolic"))
def test_a_value_past_the_int_digit_limit_is_a_usage_error(capsys, tmp_path, where):
    # Python refuses to convert an int string of more than 4300 digits; a
    # coefficient string that long is malformed input, not a crash
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("an interpreter without the int-string digit limit")
    limit = sys.get_int_max_str_digits()
    for digits, code_wanted in ((limit, 0), (limit + 1, 2)):
        value = "1" + "0" * (digits - 1)
        coeff = {"num": [value], "den": ["1"]} if where == "symbolic" else value
        operand, psi = json.dumps([coeff]), ("q" if where == "symbolic" else "natural")
        if where == "file":
            operand = str(tmp_path / "f.json")
            Path(operand).write_text(json.dumps({"psi": psi, "order": 0, "coeffs": [coeff]}))
        code, out, err = run_cli(capsys, "op", "mul", operand, "[1]", "--psi", psi)
        assert code == code_wanted, err
        if code:
            assert out == "" and "Traceback" not in err
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert f"{limit}-digit" in err
        else:
            assert value in out and err == ""


@pytest.mark.parametrize("argv", (
    ("op", "fontane", "[1,2]", "[3,4]", "--psi", "fib", "--i"),
    ("check", "rules", "--psi", "fib", "--order"),
    ("pascal", "--n"),
))
def test_a_bad_int_option_is_echoed_cut(capsys, argv):
    # argparse quotes a bad option value whole; a 4,301-digit one is cut as
    # every other refused input is, on one error line that names the option
    code, out, err = run_cli(capsys, *argv, "1" + "0" * 4300)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {argv[-1]}: invalid int value: '1000" in errors[0]
    assert len(err.encode()) < 512
    # a short bad value reads as argparse writes it
    code, _, err = run_cli(capsys, *argv, "1.5")
    assert code == 2 and err.endswith(f"error: argument {argv[-1]}: invalid int value: '1.5'\n")


LONG_WORD = "x" * 5000


@pytest.mark.parametrize("argv", (
    ("op", LONG_WORD, "[1]"),
    ("pascal", LONG_WORD),
    ("check", LONG_WORD),
    ("seq", "--psi", "fib", "--format", LONG_WORD),
    (LONG_WORD,),
))
def test_an_argparse_error_is_cut(capsys, argv):
    # an invalid choice or a stray argument is quoted whole by argparse, and cut by the parser
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert len(err.encode()) < 512


def test_op_output_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "op", "mul", "[1,2,3]", "[1,1,1]", "--psi", "q=3/2")
    assert code == 0
    data = json.loads(out)
    back = WardSeries.from_json_dict(data)
    assert back.to_json_dict() == data


# -- pascal -----------------------------------------------------------------------


def test_pascal_plain_rows(capsys):
    code, out, _ = run_cli(capsys, "pascal", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "*inf",
        "*inf | *(1,0)",
        "*inf | *(1,0) [+] *(2,1) | *(1,0)*(2,0)",
    ]


def test_pascal_json(capsys):
    code, out, _ = run_cli(capsys, "pascal", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    by_nk = {(r["n"], r["k"]): r["op"] for r in data["rows"]}
    assert by_nk[(0, 0)] == "*inf"
    assert len([1 for (n, k) in by_nk if n == 5 and k == 1]) == 1
    assert by_nk[(5, 1)].count("[+]") == 4  # five terms


def test_pascal_at_the_ceiling_runs(capsys):
    code, out, _ = run_cli(capsys, "pascal", "--n", str(PASCAL_MAX_N))
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == PASCAL_MAX_N + 1
    assert len(rows[-1].split(" | ")) == PASCAL_MAX_N + 1


@pytest.mark.parametrize("fmt", ("plain", "json"))
def test_pascal_past_the_ceiling_is_usage_error(capsys, fmt):
    code, out, err = run_cli(capsys, "pascal", "--n", str(PASCAL_MAX_N + 1), "--format", fmt)
    assert code == 2
    assert out == "" and err.startswith("error:") and str(PASCAL_MAX_N) in err


# -- check ------------------------------------------------------------------------


def test_check_small_run_passes(capsys):
    code, out, _ = run_cli(
        capsys, "check", "rings", "--psi", "fib", "--order", "6",
        "--trials", "3", "--seed", "1",
    )
    assert code == 0
    assert "OK" in out
    assert "FAIL" not in out


def test_check_rules_reports_every_rule_family(capsys):
    code, out, _ = run_cli(
        capsys, "check", "rules", "--psi", "fib", "--order", "6",
        "--trials", "2", "--seed", "4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    rules = {r["rule"] for r in data["reports"]}
    assert any(r.startswith("product.asterisk") for r in rules)
    assert any(r.startswith("product.star") for r in rules)
    assert any(r.startswith("product.ordinary") for r in rules)
    assert any(r.startswith("product.chain") for r in rules)
    assert any(r.startswith("product.boxplus") for r in rules)


def test_check_all_includes_every_builtin_spec(capsys):
    code, out, _ = run_cli(
        capsys, "check", "leibniz", "--order", "5", "--trials", "1",
        "--seed", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    specs = {r["psi"] for r in data["reports"]}
    assert "natural" in specs and "q" in specs and "q=3/2" in specs and "fib" in specs
    assert any(s.startswith("custom:") for s in specs)


def test_check_is_deterministic(capsys):
    args = ("check", "rules", "--psi", "q=3/2", "--order", "5", "--trials", "2",
            "--seed", "9", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_corrupted_rule_fails_with_first_diff(capsys, monkeypatch):
    rule = calculus.product_rule

    def corrupted(label, a, f, g, star=False):
        if label.startswith("product.ordinary"):
            return compare(label, f, f + constant(f.ctx, 1, f.order))
        return rule(label, a, f, g, star)

    monkeypatch.setattr(calculus, "product_rule", corrupted)
    code, out, _ = run_cli(
        capsys, "check", "rules", "--psi", "natural", "--order", "5",
        "--trials", "2", "--seed", "3", "--format", "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    broken = [r for r in data["reports"] if not r["ok"]]
    assert [r["rule"] for r in broken] == ["product.ordinary.asterisk_form",
                                           "product.ordinary.star_form"]
    assert all(r["first_diff"] == 0 for r in broken)


@pytest.mark.parametrize("argv, laws", [
    # s_n = 1 for n >= 1: associative, not commutative
    (("rings", "--psi", "q=0"), ("ring.associative", "ring.non_commutative_witness")),
    (("all", "--psi", "custom:[0,1,1,1,1,1,1,1,1,1,1,1,1]"),
     ("ring.associative", "ring.non_commutative_witness")),
    # 0, 1, 2, ... up to the last value: the classical products through order 8
    (("rings", "--psi", "custom:[0,1,2,3,4,5,6,7,8,9,10,11,12,13,99]", "--order", "8"),
     ("ring.associative", "ring.commutative")),
])
def test_check_ring_laws_follow_the_products_not_the_spec(capsys, argv, laws):
    # none of these sequences is 0, 1, 2, ..., yet *_{1,0} obeys a law there
    code, out, _ = run_cli(capsys, "check", *argv, "--trials", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    rings = [r["rule"] for r in data["reports"]
             if "associative" in r["rule"] or "commutative" in r["rule"]]
    assert tuple(rings) == laws


@pytest.mark.parametrize("command, n", [
    (("seq", "--psi", "custom:[0,1,2]", "--n", "5"), 5),
    (("check", "rings", "--psi", "custom:[0,1,2]", "--order", "8", "--trials", "1"), 12),
    (("op", "mul", "FILE", "FILE"), 3),
], ids=["seq", "check", "op-file"])
def test_a_read_past_a_custom_lists_end_is_one_usage_error(capsys, tmp_path, command, n):
    # the series file has order 3 over a list that ends at index 2
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"psi": "custom:[0,1,2]", "order": 3, "coeffs": [1, 2, 3, 4]}))
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in command])
    assert (code, out) == (2, "")
    assert err == f"error: sequence 'custom:[0,1,2]' ends at index 2, needs {n}\n"


def test_check_rejects_short_custom_spec(capsys):
    code, _, err = run_cli(
        capsys, "check", "rings", "--psi", "custom:[0,1,2]", "--order", "8",
        "--trials", "1", "--seed", "0",
    )
    assert code == 2


@pytest.mark.parametrize("suite", ("rings", "rules", "leibniz", "quotient"))
@pytest.mark.parametrize("order", (0, 1))
def test_check_order_below_two_is_usage_error(capsys, suite, order):
    code, out, err = run_cli(capsys, "check", suite, "--psi", "natural",
                             "--order", str(order), "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: order must be at least 2"]


@pytest.mark.parametrize("order, trials, message", (
    ("3", "0", "trial count must be at least 1"),
    ("3", "-2", "trial count must be at least 1"),
    ("-1", "5", "order must be at least 2"),
    ("1", "0", "order must be at least 2"),  # the order is checked first
))
def test_check_trial_count_below_one_is_usage_error(capsys, order, trials, message):
    code, out, err = run_cli(capsys, "check", "rules", "--psi", "natural",
                             "--order", order, "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


def test_usage_errors_exit_2(capsys):
    assert main(["op", "frobnicate", "[1]"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "psicalc", "pascal", "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["*inf", "*inf | *(1,0)"]


# -- import boundaries ---------------------------------------------------------------

LAYERS = ("psicalc.verify", "psicalc.calculus", "psicalc.operator_algebra")


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv,loaded", [
    (None, ()),
    (["op", "mul", "[1,2]", "[3,4]", "--psi", "q"], ()),
    (["op", "chain", "[1,2]", "[3,4]", "--psi", "fib", "--chain", "[(2,1)]"], ()),
    (["seq", "--psi", "q=3/2", "--n", "3"], ()),
    (["pascal", "--n", "2"], ("psicalc.operator_algebra",)),
    (["check", "rings", "--psi", "natural", "--trials", "1"], LAYERS),
])
def test_each_command_loads_only_the_layers_it_runs(argv, loaded):
    out = run_fresh("import sys, contextlib, io\n"
                    "from psicalc.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert {argv is None} or main({argv!r}) == 0\n"
                    f"print(sorted(m for m in {LAYERS!r} if m in sys.modules))\n")
    assert out.strip() == repr(sorted(loaded))


Q_LAYER = ("psicalc.qfield", "psicalc.qkernels")


@pytest.mark.parametrize("argv,loaded", [
    (["op", "mul", "[1,2]", "[3,4]", "--psi", "natural"], ()),
    (["pascal", "--n", "3"], ()),
    (["check", "rules", "--psi", "natural", "--trials", "1"], ()),
    (["op", "mul", "[1,2]", "[3,4]", "--psi", "q"], Q_LAYER),
])
def test_plain_commands_compile_neither_the_q_field_nor_dataclasses(argv, loaded):
    out = run_fresh("import sys, contextlib, io\n"
                    "from psicalc.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert main({argv!r}) == 0\n"
                    f"print(sorted(m for m in {Q_LAYER + ('dataclasses',)!r} if m in sys.modules))\n")
    assert out.strip() == repr(sorted(loaded))


# CPython's parser grows its token array by doubling, so a module past 4,096
# parser tokens costs about 0.22 MB more memory to compile, in one step; a
# process compiles every module it imports when no bytecode is cached
PARSER_TOKEN_STEP = 4096


def parser_tokens(path: Path) -> int:
    """The tokens of a source file as the parser reads them: no comment, NL or encoding token."""
    with path.open("rb") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                   for tok in tokenize.tokenize(fh.readline))


def test_every_module_stays_below_the_parser_token_step():
    counts = {path.name: parser_tokens(path)
              for path in sorted(Path(psicalc.__file__).parent.glob("*.py"))}
    assert max(counts.values()) < PARSER_TOKEN_STEP, counts


def test_q_field_names_resolve_lazily_to_one_object():
    out = run_fresh(
        "import sys\n"
        "import psicalc\n"
        "from psicalc import coefficients\n"
        "assert 'psicalc.qfield' not in sys.modules and 'psicalc.qkernels' not in sys.modules\n"
        "from psicalc import qfield\n"
        "for name in ('Q', 'PolyQ', 'RatFuncQ', 'embed_rational'):\n"
        "    value = getattr(qfield, name)\n"
        "    assert getattr(psicalc, name) is value\n"
        "assert not hasattr(coefficients, '_pack') and not hasattr(coefficients, 'no_such_name')\n"
        "assert 'psicalc.qkernels' not in sys.modules\n"
        "ctx = psicalc.get_context('q')\n"
        "f = psicalc.make_series(ctx, [1, 2, 3])\n"
        "results = [f * f, f.divide(f + f), f.fontane(f, 2, 1), psicalc.general_leibniz(f, f, 1)]\n"
        "assert all(isinstance(x, psicalc.RatFuncQ) for r in results for x in r.coeffs)\n"
        "half = psicalc.embed_rational(psicalc.parse_rational('1/2'))\n"
        "assert isinstance(half, psicalc.RatFuncQ)\n"
        "print('ok')\n")
    assert out.strip() == "ok"


def test_cli_suite_names_are_the_verify_suites():
    from psicalc.cli import _SUITES
    from psicalc.verify import SUITE_NAMES

    assert _SUITES == SUITE_NAMES


def test_every_package_name_resolves_to_its_module_object():
    out = run_fresh(
        "import importlib, sys\n"
        "import psicalc\n"
        "lazy = [m for m in ('psicalc.operator_algebra', 'psicalc.calculus') if m in sys.modules]\n"
        "mods = [importlib.import_module('psicalc.' + m) for m in ('coefficients', 'errors',\n"
        "        'qfield', 'psi_context', 'series', 'operator_algebra', 'calculus')]\n"
        "for name in psicalc.__all__:\n"
        "    owners = [m for m in mods if hasattr(m, name)]\n"
        "    assert owners, name\n"
        "    assert all(getattr(psicalc, name) is getattr(m, name) for m in owners), name\n"
        "    assert name in vars(psicalc) and name in dir(psicalc), name\n"
        "star = {}\n"
        "exec('from psicalc import *', star)\n"
        "assert set(psicalc.__all__) <= set(star)\n"
        "assert not hasattr(psicalc, 'no_such_name')\n"
        "print(lazy)\n")
    assert out.strip() == "[]"


def test_lazy_layers_load_on_first_use():
    out = run_fresh(
        "import sys\n"
        "import psicalc\n"
        "assert 'general_leibniz' in dir(psicalc) and 'calculus' in dir(psicalc)\n"
        "assert 'psicalc.calculus' not in sys.modules\n"
        "from psicalc import general_leibniz\n"
        "assert psicalc.calculus.general_leibniz is general_leibniz\n"
        "print(sorted(m for m in sys.modules if m.startswith('psicalc.')))\n")
    assert out.strip() == repr(sorted(
        ["psicalc.calculus", "psicalc.coefficients", "psicalc.errors",
         "psicalc.operator_algebra", "psicalc.psi_context", "psicalc.series"]))

# -- fuzz -------------------------------------------------------------------------

FUZZ_SPECS = ("natural", "fib", "q", "q=3/2", "q=0", "q=-1", "q=x", "",
              "custom:[0,1,2,1,3,1,4,1,5,1,6]", "custom:[0,1]", "custom:[1,0]", "bogus")
json_scalars = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
    st.none(),
    st.floats(),
    # the last is one digit past Python's int-string limit
    st.sampled_from(["1/2", "-3", "0", "x", "1/0", "", "2/4", "1" + "0" * 4300]),
    st.fixed_dictionaries({
        "num": st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
        "den": st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
    }),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6,
)
# orders stay below 6 so an example costs milliseconds
inline_operands = st.one_of(
    st.lists(json_scalars, max_size=6).map(json.dumps),
    st.sampled_from(["[", "[1,", "[]", "[[]]", "[1,2]x", "[ 1 , 2 ]"]),
)
series_objects = st.one_of(
    st.fixed_dictionaries({
        "psi": st.one_of(st.sampled_from(FUZZ_SPECS), json_values),
        "order": st.one_of(st.integers(min_value=-2, max_value=5), json_values),
        "coeffs": st.one_of(st.lists(json_values, max_size=6), json_values),
    }),
    json_values,
)
small_ints = st.sampled_from(["-1", "0", "1", "2", "3", "5", "x"])


def _fuzz_argv(draw, path):
    # op, which reads operands, is drawn three times as often as the rest
    command = draw(st.sampled_from(("seq", "op", "op", "op", "pascal", "check", "bogus")))
    argv = [command]
    flags = []
    if command in ("seq", "op", "check") and draw(st.booleans()):
        flags += ["--psi", draw(st.sampled_from(FUZZ_SPECS))]
    if command in ("seq", "pascal", "check") and draw(st.booleans()):
        flags += ["--format", draw(st.sampled_from(("plain", "json", "xml")))]
    if command in ("seq", "pascal"):
        flags += ["--n", draw(st.sampled_from(["-1", "0", "1", "4", str(PASCAL_MAX_N + 1), "x"]))]
    elif command == "op":
        argv.append(draw(st.sampled_from(("mul", "fontane", "star", "chain", "derive", "div",
                                          "bogus"))))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            argv.append(path if draw(st.booleans()) else draw(inline_operands))
        if draw(st.booleans()):
            flags += ["--i", draw(small_ints), "--j", draw(small_ints)]
        if draw(st.booleans()):
            flags += ["--chain", draw(st.sampled_from(
                ("[(1,0)]", "[(2,1),(1,0)]", "[(0,1)]", "[(1,)]", "[[3,1]]", "x", "[]",
                 "[(1.5,0)]", "[(1e400,0)]")))]
    elif command == "check":
        argv.append(draw(st.sampled_from(("rings", "rules", "leibniz", "quotient", "all",
                                          "bogus"))))
        flags += ["--order", draw(st.sampled_from(["-1", "0", "2", "3", "x"])),
                  "--trials", draw(st.sampled_from(["0", "1", "2"])),
                  "--seed", draw(small_ints)]
    return argv + flags


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "series.json"


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exit_codes(fuzz_file, data):
    if data.draw(st.booleans()):
        fuzz_file.write_text(json.dumps(data.draw(series_objects)))
    else:
        fuzz_file.write_bytes(data.draw(st.sampled_from(
            (b"{", b"\xff\xfe\x00", DEEP.encode(), b'{"psi": "q"}'))))
    argv = _fuzz_argv(data.draw, str(fuzz_file))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
