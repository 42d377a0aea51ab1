"""The verdicts of the paired-benchmark script, on synthetic runs."""
import importlib.util
import os
import statistics

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


TRACE_SPEC = {
    "workloads": [{"name": "w"}],
    "per_layer": [
        {"name": "engine.mixer_us", "unit": "us", "better": "lower"},
        {"name": "harness.pool_busy_frac", "unit": "ratio", "better": "higher"},
    ],
}


def traced(mixer, busy=0.5, kernel=1e-3):
    """Values of one traced run; None is an errored run."""
    if mixer is None:
        return {"error": "exit 1: boom"}
    return {"engine.mixer_us": mixer, "harness.pool_busy_frac": busy, "correct": True,
            "kernels": [{"n": 8, "kernel": "mixer", "median_s": kernel},
                        {"n": 20, "kernel": "exact", "median_s": 2e-3}]}


def trace_summary(pairs):
    runs = {s: {"parent": a, "change": b} for s, (a, b) in zip(SEEDS, pairs)}
    return bench_pairs._trace_summary(runs, TRACE_SPEC, SEEDS[:len(pairs)])


def test_trace_summary_gives_every_layer_and_kernel_row_a_verdict():
    out = trace_summary([(traced(p, 0.5, p * 1e-4), traced(p - 2.0, 0.6, (p - 2.0) * 1e-4))
                         for p in PARENT[:5]])
    mixer = out["per_layer"]["engine.mixer_us"]
    assert mixer["wins"] == mixer["pairs"] == mixer["pairs_run"] == 5 and mixer["gain"]
    assert mixer["parent"]["median"] == statistics.median(PARENT[:5])
    assert mixer["median_change_rel"] == pytest.approx(-0.2, abs=1e-2)
    busy = out["per_layer"]["harness.pool_busy_frac"]
    assert busy["better"] == "higher" and busy["wins"] == 5 and busy["gain"]
    assert [(row["n"], row["kernel"]) for row in out["kernels"]] == [(8, "mixer"), (20, "exact")]
    low, high = out["kernels"]
    assert low["wins"] == 5 and low["gain"] and low["unit"] == "s"
    assert high["ties"] == 5 and high["wins"] == 0 and not high["gain"]
    for entry in [*out["per_layer"].values(), *out["kernels"]]:
        assert "regressed" not in entry and "unresolved" not in entry
        assert entry["errored"] == {"parent": 0, "change": 0}


def test_trace_summary_counts_errored_runs():
    pairs = [(traced(p), traced(p - 2.0)) for p in PARENT[:4]] + [(traced(10.0), traced(None))]
    out = trace_summary(pairs)
    mixer = out["per_layer"]["engine.mixer_us"]
    assert mixer["errored"] == {"parent": 0, "change": 1}
    assert mixer["pairs"] == 4 and mixer["pairs_run"] == 5 and mixer["wins"] == 4
    assert not mixer["gain"]  # 4 of 5 pairs is below nine tenths
    assert out["kernels"][0]["pairs"] == 4


FAKE_RUN = '''
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
os.makedirs("perfbench/out", exist_ok=True)
name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
with open(os.path.join("perfbench/out", name), "w") as fh:
    json.dump({"kernels": [{"n": 8, "kernel": "mixer", "median_s": 2e-6, "reps": 5}]}, fh)
print(json.dumps({"correct": True, "metrics": {"engine.mixer_us": {"value": 9.0, "unit": "us"}}}))
'''


def test_traced_run_reads_the_kernel_table_from_its_result_file(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    values = bench_pairs._run(str(tmp_path), "w", 7, 1.0, trace=True)
    assert values == {"engine.mixer_us": 9.0, "correct": True,
                      "kernels": [{"n": 8, "kernel": "mixer", "median_s": 2e-6}]}
    untraced = bench_pairs._run(str(tmp_path), "w", 7, 1.0)
    assert "kernels" not in untraced and untraced["engine.mixer_us"] == 9.0
