"""The pairs tool's summary rule and result parsing, on synthetic results."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
# dataclasses looks its module up by name
sys.modules.setdefault("bench_pairs", bench_pairs)
_SPEC.loader.exec_module(bench_pairs)

# parent runs 9.5..10.5: median 10, quartiles 9.825 and 10.175
PARENT = [9.5, 9.75, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.25, 10.5]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pairs.quartiles(PARENT) == pytest.approx((9.825, 10.0, 10.175))


def test_ten_wins_and_a_gap_past_the_parent_spread_make_a_claim():
    s = bench_pairs.summarize("higher", 0.25, PARENT, [p + 1.0 for p in PARENT])
    assert (s.wins, s.pairs, s.claim, s.bound) == (10, 10, True, "within")


def test_a_claim_needs_nine_wins_in_ten():
    change = [p + 1.0 for p in PARENT]
    change[0] = change[1] = 0.0
    s = bench_pairs.summarize("higher", 0.25, PARENT, change)
    assert (s.wins, s.claim) == (8, False)
    # a tie counts for neither side, and nine wins still hold
    change = [p + 1.0 for p in PARENT]
    change[3] = PARENT[3]
    s = bench_pairs.summarize("higher", 0.25, PARENT, change)
    assert (s.wins, s.claim) == (9, True)


def test_a_claim_needs_a_median_gap_past_the_parent_spread():
    # 0.3 < 0.35, the parent's interquartile range
    s = bench_pairs.summarize("higher", 0.25, PARENT, [p + 0.3 for p in PARENT])
    assert (s.wins, s.claim) == (10, False)


def test_lower_is_better_counts_the_other_way():
    faster = [p - 1.0 for p in PARENT]
    s = bench_pairs.summarize("lower", 0.25, PARENT, faster)
    assert (s.wins, s.claim, s.bound) == (10, True, "within")
    s = bench_pairs.summarize("higher", 0.25, PARENT, faster)
    assert (s.wins, s.claim, s.bound) == (0, False, "within")


@pytest.mark.parametrize("better, factor, verdict", [
    ("higher", 0.80, "within"),
    ("higher", 0.70, "beyond"),
    ("lower", 1.20, "within"),
    ("lower", 1.30, "beyond"),
])
def test_the_bound_is_relative_to_the_parent_median(better, factor, verdict):
    s = bench_pairs.summarize(better, 0.25, PARENT, [p * factor for p in PARENT])
    assert s.bound == verdict


def test_a_parent_spread_past_the_bound_is_unresolved_unless_every_run_beats_it():
    parent = [5.0, 8.0, 10.0, 12.0, 15.0]
    assert bench_pairs.summarize("higher", 0.25, parent, parent).bound == "unresolved"
    assert bench_pairs.summarize("higher", 0.25, parent, [20.0] * 5).bound == "within"


def _result_line(correct=True, **metrics):
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": "1"} for k, v in metrics.items()}})


def test_a_result_line_gives_the_named_metrics():
    stdout = "ops_per_s = 30.0 op/s\n" + _result_line(ops_per_s=30.0, setup_s=0.25) + "\n"
    assert bench_pairs.parse_result(0, stdout, ["ops_per_s", "setup_s"]) == {"ops_per_s": 30.0, "setup_s": 0.25}


@pytest.mark.parametrize("returncode, stdout, reason", [
    (1, _result_line(ops_per_s=30.0), "exited 1"),
    (0, "", "malformed last line"),
    (0, "ops_per_s = 30.0 op/s\n", "malformed last line"),
    (0, _result_line(setup_s=0.25), "malformed last line"),
    (0, _result_line(correct=False, ops_per_s=30.0), "reported correct: False"),
])
def test_an_unusable_run_is_refused(returncode, stdout, reason):
    with pytest.raises(bench_pairs.RunFailed, match=reason):
        bench_pairs.parse_result(returncode, stdout, ["ops_per_s"])
