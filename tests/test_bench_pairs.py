"""The verdicts of the paired-benchmark script, on synthetic runs."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}
SEEDS = list(range(1, 11))


def summary(parent, change, holdout=None):
    """``_summary`` of pairs (parent ms, change ms); None is an errored run."""
    def run(ms):
        return {"error": "exit 1: boom"} if ms is None else {"ms": ms, "rate": 1000.0 / ms}
    runs = {"w": {s: {"parent": run(a), "change": run(b)}
                  for s, a, b in zip(SEEDS, parent, change)}}
    if holdout is not None:
        runs["w"][bench_pairs.HOLDOUT_SEED] = {"parent": run(holdout[0]),
                                               "change": run(holdout[1])}
    return bench_pairs._summary(runs, SPEC, SEEDS)["w"]


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]


def test_clear_gain_on_both_senses():
    out = summary(PARENT, [p - 2.0 for p in PARENT], holdout=(10.0, 8.0))
    for key in ("ms", "rate"):
        entry = out[key]
        assert entry["wins"] == entry["pairs"] == entry["pairs_run"] == 10
        assert entry["gain"] and entry["gain_beyond_parent_iqr"]
        assert not entry["regressed"] and not entry["unresolved"]
        assert entry["errored"] == {"parent": 0, "change": 0}
        assert entry["holdout"]["change_wins"] is True
    assert out["ms"]["median_change_rel"] == pytest.approx(-0.2, abs=1e-3)


def test_eight_wins_of_ten_is_no_gain():
    change = [p - 2.0 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]]
    entry = summary(PARENT, change)["ms"]
    assert entry["wins"] == 8 and entry["gain_beyond_parent_iqr"]
    assert not entry["gain"]


@pytest.mark.parametrize("ties, gain", [(1, True), (2, False)])
def test_ties_count_for_neither_side(ties, gain):
    change = [p - 2.0 for p in PARENT[:10 - ties]] + PARENT[10 - ties:]
    entry = summary(PARENT, change)["ms"]
    assert entry["ties"] == ties and entry["wins"] == 10 - ties
    assert entry["gain"] is gain


def test_errored_runs_are_counted_and_never_win():
    change = [p - 2.0 for p in PARENT[:8]] + [None, PARENT[9] + 1.0]
    parent = PARENT[:7] + [None] + PARENT[8:]
    entry = summary(parent, change)["ms"]
    assert entry["errored"] == {"parent": 1, "change": 1}
    assert entry["pairs"] == 8 and entry["pairs_run"] == 10
    assert entry["wins"] == 7 and not entry["gain"]


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5, 7.5, 12.5]
    overlapping = [p + 0.5 for p in parent]
    entry = summary(parent, overlapping)["ms"]
    assert entry["unresolved"] and not entry["regressed"] and not entry["gain"]
    beating = [5.0] * 10  # every change run beats every parent run
    assert not summary(parent, beating)["ms"]["unresolved"]


def test_regression_beyond_the_bound():
    entry = summary(PARENT, [p * 1.3 for p in PARENT])["ms"]
    assert entry["regressed"] and entry["wins"] == 0 and not entry["unresolved"]
    assert not summary(PARENT, [p * 1.2 for p in PARENT])["ms"]["regressed"]
