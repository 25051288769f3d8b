"""The claim rule and the per-metric verdict of `tools/bench_pairs.py` on
synthetic runs.

A gain holds when the change wins at least nine tenths of the pairs, the
medians differ by more than the parent's interquartile range, and no more
operations fail at the change than at the parent.  A metric's verdict is
"ok" when every change run beats every parent run, else "unresolved" when
the parent's interquartile range passes the bound times its median, else
"worse" when the change's median is worse by more than that, else "ok".
"""

from __future__ import annotations

import bench_pairs

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def _summary(parent, change, failed=(0, 0), better="higher"):
    """One workload's summary of ops_per_s pairs, with a bound of 0.2;
    `failed` is each side's count, charged to its first run."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            lost = failed[side == "change"] if pair == 0 else 0
            result = {"metrics": {"ops_per_s": {"value": value}}, "failed": lost}
            runs.append({"side": side, "pair": pair, "seed": pair, "result": result})
    return bench_pairs.summarize(runs, {"ops_per_s": {"better": better, "bound": 0.2}})


def _holds(summary) -> bool:
    return bench_pairs.claim_holds(summary, "ops_per_s")


def test_nine_wins_of_ten_hold():
    change = [v + 20 for v in PARENT[:9]] + [PARENT[9] - 1]
    summary = _summary(PARENT, change)
    assert summary["ops_per_s"]["change_wins"] == 9
    assert _holds(summary)


def test_eight_wins_of_ten_do_not_hold():
    change = [v + 20 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]]
    summary = _summary(PARENT, change)
    assert summary["ops_per_s"]["change_wins"] == 8
    assert not _holds(summary)


def test_a_tie_counts_for_neither_side():
    change = [v + 20 for v in PARENT[:9]] + [PARENT[9]]
    assert _summary(PARENT, change)["ops_per_s"]["change_wins"] == 9
    change = [v + 20 for v in PARENT[:8]] + PARENT[8:]
    summary = _summary(PARENT, change)
    assert summary["ops_per_s"]["change_wins"] == 8
    assert not _holds(summary)


def test_a_median_gap_inside_the_parent_interquartile_range_does_not_hold():
    # the change wins every pair, by less than the parent's spread
    change = [v + 1 for v in PARENT]
    summary = _summary(PARENT, change)
    assert summary["ops_per_s"]["change_wins"] == 10
    assert not _holds(summary)


def test_one_more_failed_operation_at_the_change_does_not_hold():
    change = [v + 20 for v in PARENT]
    assert _holds(_summary(PARENT, change, failed=(2, 2)))
    summary = _summary(PARENT, change, failed=(2, 3))
    assert summary["failed"] == {"parent": 2, "change": 3}
    assert not _holds(summary)


# the parent's interquartile range, 10..100 in steps of 10, is 45 against a
# median of 55: more than the bound of 0.2 of it
WIDE = [10.0 * i for i in range(1, 11)]


def _verdict(parent, change, better="higher") -> str:
    return _summary(parent, change, better=better)["ops_per_s"]["verdict"]


def test_a_change_that_beats_every_parent_run_is_ok_however_wide_the_parent():
    assert _verdict(WIDE, [v + 100 for v in WIDE]) == "ok"
    assert _verdict(WIDE, [v / 100 for v in WIDE], better="lower") == "ok"


def test_a_parent_spread_past_the_bound_is_unresolved():
    assert _verdict(WIDE, [v + 5 for v in WIDE]) == "unresolved"
    assert _verdict(WIDE, [v / 2 for v in WIDE]) == "unresolved"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # 104.5 -> 73.15, 30% down against a bound of 20%
    assert _verdict(PARENT, [v * 0.7 for v in PARENT]) == "worse"
    assert _verdict(PARENT, [v * 1.3 for v in PARENT], better="lower") == "worse"


def test_a_median_worse_by_less_than_the_bound_is_ok():
    # 104.5 -> 94.5, under 10% down
    assert _verdict(PARENT, [v - 10 for v in PARENT]) == "ok"
    assert _verdict(PARENT, [v + 10 for v in PARENT], better="lower") == "ok"
