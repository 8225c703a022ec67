"""The verdicts of ``tools/bench_record.py``, fed synthetic runs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01}]
TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
WIDE = [1.0, 2.0] * 5


def runs(parent: list, change: list, ok_parent=1.0, ok_change=1.0) -> list:
    """One parent and one change run per seed, the values given in seed order."""
    return [{"workload": "w", "seed": seed, "side": side,
             "metrics": {"wall_s": {"value": value}, "ok_frac": {"value": ok}}}
            for seed, (p, c) in enumerate(zip(parent, change))
            for side, value, ok in (("parent", p, ok_parent), ("change", c, ok_change))]


@pytest.mark.parametrize("parent, change, want", (
    # the change's median is 1.5 over 1.0, past the 25% bound
    (TIGHT, [1.5] * 10, "worse"),
    # worse by more than the bound outranks a parent spread wider than it
    (WIDE, [3.0] * 10, "worse"),
    # the parent's IQR is 1 over a median of 1.5, wider than the bound allows
    (WIDE, [1.4, 1.6] * 5, "unresolved"),
    (WIDE, [1.0] + [0.4] * 9, "unresolved"),  # one change run ties the best parent run
    # every change run beats every parent run, by more than the parent's IQR
    (WIDE, [0.4] * 10, "better"),
    (WIDE, [0.5] * 10, "within bound"),  # the medians differ by the IQR, not more
    (TIGHT, [x - 0.1 for x in TIGHT], "better"),
    # 9 of 10 pairs won is enough, 8 of 10 is not
    (TIGHT, [x - 0.1 for x in TIGHT[:9]] + [TIGHT[9]], "better"),
    (TIGHT, [x - 0.1 for x in TIGHT[:8]] + TIGHT[8:], "within bound"),
    (TIGHT, TIGHT, "within bound"),
    (TIGHT, [1.2] * 10, "within bound"),  # worse, but inside the bound
))
def test_summarize_gives_one_verdict_per_metric(parent, change, want):
    table = bench_record.summarize(runs(parent, change), END_TO_END)["w"]
    assert table["wall_s"]["verdict"] == want
    assert table["ok_frac"]["verdict"] == "within bound"


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    table = bench_record.summarize(runs(TIGHT, TIGHT, ok_change=0.98), END_TO_END)["w"]
    assert table["ok_frac"]["verdict"] == "worse"
    table = bench_record.summarize(runs(TIGHT, TIGHT, ok_parent=0.9), END_TO_END)["w"]
    assert table["ok_frac"]["verdict"] == "better"


def test_every_row_reports_the_spread_of_both_sides():
    table = bench_record.summarize(runs(TIGHT, WIDE), END_TO_END)["w"]
    for row in table.values():
        assert list(row)[list(row).index("parent_iqr") + 1] == "change_iqr"
    assert table["wall_s"]["parent_iqr"] == pytest.approx(0.02)
    assert table["wall_s"]["change_iqr"] == pytest.approx(1.0)
    assert table["ok_frac"]["change_iqr"] == 0
    # one run a side has no spread
    assert bench_record.summarize(runs([1.0], [2.0]), END_TO_END)["w"]["wall_s"]["change_iqr"] == 0


def test_the_change_spread_does_not_move_the_verdict():
    # every change run beats every parent run, wide as the change's runs spread:
    # the verdict reads the parent's IQR alone
    wide_change = [0.5, 0.9] * 5
    table = bench_record.summarize(runs(TIGHT, wide_change), END_TO_END)["w"]
    assert table["wall_s"]["change_iqr"] == pytest.approx(0.4)
    assert table["wall_s"]["verdict"] == "better"
    # and a change worse by more than the bound is worse whatever its spread
    table = bench_record.summarize(runs(TIGHT, [1.4, 1.6] * 5), END_TO_END)["w"]
    assert table["wall_s"]["verdict"] == "worse"
