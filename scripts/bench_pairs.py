"""Paired benchmark of two commits: parent against change, alternating.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_8.json
    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_8_trace.json \
        --trace oneshot-n20

Each commit's files are exported with ``git archive`` into its own fresh
temporary directory (``TMPDIR`` chooses where; it is removed at the end),
so both sides run committed code the same way and the repository's
working tree and metadata are left alone. For every pair and
every workload in ``BENCHMARK.json`` the script runs
``perfbench/run.py --seconds S --trace 0`` once on each side, on the same
seed, where S is the benchmark's ``run_seconds``. There are ``PAIRS``
pairs on seeds ``FIRST_SEED`` upward; even pairs run the parent first and
odd pairs the change first, so slow drift of the host falls on both sides
alike. The holdout seed runs as one more pair after the tuned seeds and is
reported apart from them.

The output holds, per workload and end-to-end metric: both sides' values
per seed, their medians and quartiles, how many pairs the change won, how
many runs of each side errored, and three verdicts. ``gain``: the change
won at least nine tenths of the pairs run, ties counting for neither side,
and beats the parent in the median by more than the parent's
interquartile range. ``regressed``: its median is worse than the parent's
by more than the metric's ``bound`` in ``BENCHMARK.json``, taken as a
fraction of the parent's median. ``unresolved``: the parent's own
interquartile range is wider than that bound and not every change run
beats every parent run, so the pairs cannot tell. It also
records the host's core count, the numpy and scipy versions and both
commits. It is rewritten after every pair, with ``"complete": false``
until the last pair is done.

With ``--trace WORKLOAD`` there are ``TRACE_PAIRS`` pairs, run with
``--trace 1`` on that workload alone and with no holdout pair. The summary
then gives each per-layer metric of ``BENCHMARK.json`` and each row of the
run's kernel table (read from its result file under ``perfbench/out/``)
the same medians, quartiles, win count and ``gain`` verdict, but no
``regressed`` or ``unresolved`` verdict: per-layer metrics have no bound.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACE_PAIRS = 6  # traced pairs of one workload, on the first seeds
FIRST_SEED = 301  # pair i runs seed FIRST_SEED + i
HOLDOUT_SEED = 9001


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(commit: str, dest: str) -> None:
    """The commit's files, as ``git archive`` writes them, into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    os.makedirs(dest)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def _run(tree: str, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One benchmark run; its metric values, or an ``error`` entry.

    A traced run's values are its per-layer metrics, and ``kernels`` holds
    the (n, kernel, median_s) rows of the kernel table in its result file.
    """
    flag = "1" if trace else "0"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", flag],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["correct"] = result["correct"]
    if trace:
        path = os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace{flag}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                rows = json.load(fh).get("kernels", [])
        except (OSError, json.JSONDecodeError) as exc:
            return {"error": f"no result file: {exc}"}
        values["kernels"] = [{k: row[k] for k in ("n", "kernel", "median_s")} for row in rows]
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _compare(pairs: list[tuple[float, float]], better: str, pairs_run: int) -> dict:
    """Both sides' medians, quartiles and values over ``pairs`` of (parent,
    change) values, the change's wins and ties, and the gain verdict.

    ``gain``: the change wins at least nine tenths of the ``pairs_run``
    pairs (ties count for neither side, a pair with an errored run is not a
    win) and beats the parent's median by more than the parent's
    interquartile range.
    """
    sign = 1.0 if better == "higher" else -1.0
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    beyond_iqr = sign * (c_med - p_med) > (p_q3 - p_q1)
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "values": parent},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "values": change},
        "pairs": len(pairs),
        "pairs_run": pairs_run,
        "wins": wins,
        "ties": sum(b == a for a, b in pairs),
        "median_change_rel": (c_med - p_med) / p_med if p_med else None,
        "gain_beyond_parent_iqr": beyond_iqr,
        "gain": wins >= 0.9 * pairs_run and beyond_iqr,
    }


def _both_ran(runs: dict, seeds: list[int]) -> tuple[list[dict], dict]:
    """The pairs of ``runs`` (seed -> side -> values) with both sides run,
    and how many runs of each side errored."""
    ran = [runs[s] for s in seeds if "parent" in runs.get(s, {}) and "change" in runs[s]]
    errored = {side: sum("error" in pair[side] for pair in ran) for side in ("parent", "change")}
    return ran, errored


def _summary(runs: dict, spec: dict, seeds: list[int]) -> dict:
    """Per workload and end-to-end metric: ``_compare``'s entry, plus the
    regression and spread verdicts and the holdout pair.

    ``regressed``: the change's median is worse than the parent's by more
    than the metric's bound. ``unresolved``: the parent's interquartile
    range is wider than the metric's bound, so ``regressed`` cannot tell a
    regression from noise, and not every change run beats every parent run.
    ``errored`` counts each side's runs that returned no metrics.
    """
    out = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        ran, errored = _both_ran(runs[name], seeds)
        per_metric = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            pairs = [(pair["parent"].get(key), pair["change"].get(key)) for pair in ran]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
            if not pairs:
                continue
            compared = _compare(pairs, metric["better"], len(ran))
            parent, change = compared["parent"], compared["change"]
            p_med, p_iqr = parent["median"], parent["q3"] - parent["q1"]
            entry = {"unit": metric["unit"], "better": metric["better"], **compared,
                     "errored": errored}
            entry["regressed"] = sign * (p_med - change["median"]) > metric["bound"] * abs(p_med)
            entry["unresolved"] = (p_iqr > metric["bound"] * abs(p_med)
                                   and min(sign * b for b in change["values"])
                                   <= max(sign * a for a in parent["values"]))
            holdout = runs[name].get(HOLDOUT_SEED, {})
            if "parent" in holdout and "change" in holdout:
                a, b = holdout["parent"].get(key), holdout["change"].get(key)
                entry["holdout"] = {"seed": HOLDOUT_SEED, "parent": a, "change": b,
                                    "change_wins": None if a is None or b is None
                                    else sign * (b - a) > 0}
            per_metric[key] = entry
        out[name] = per_metric
    return out


def _trace_summary(runs: dict, spec: dict, seeds: list[int]) -> dict:
    """Traced pairs of one workload: ``_compare``'s entry for each per-layer
    metric and each kernel-table row (its ``median_s``, lower is better).

    Per-layer metrics have no bound in ``BENCHMARK.json``, so there is no
    regression verdict; ``errored`` counts each side's failed runs.
    """
    ran, errored = _both_ran(runs, seeds)
    per_layer = {}
    for metric in spec["per_layer"]:
        key = metric["name"]
        pairs = [(pair["parent"].get(key), pair["change"].get(key)) for pair in ran]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if pairs:
            per_layer[key] = {"unit": metric["unit"], "better": metric["better"],
                              **_compare(pairs, metric["better"], len(ran)), "errored": errored}

    def rows(values: dict) -> dict:
        return {(r["n"], r["kernel"]): r["median_s"] for r in values.get("kernels", [])}

    kernels = {}
    for pair in ran:
        parent, change = rows(pair["parent"]), rows(pair["change"])
        for key in parent.keys() & change.keys():
            kernels.setdefault(key, []).append((parent[key], change[key]))
    return {
        "per_layer": per_layer,
        "kernels": [{"n": n, "kernel": kernel, "unit": "s", "better": "lower",
                     **_compare(pairs, "lower", len(ran)), "errored": errored}
                    for (n, kernel), pairs in sorted(kernels.items())],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", metavar="WORKLOAD",
                        help="run traced pairs of this workload and summarize its per-layer "
                             "metrics and kernel table instead")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.trace is not None and args.trace not in workloads:
        parser.error(f"--trace: unknown workload {args.trace!r}; known: {workloads}")
    commits = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    seconds = spec["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(TRACE_PAIRS if args.trace else PAIRS)]
    header = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "commits": commits, "seconds": seconds, "seeds": seeds,
        **({"trace": args.trace} if args.trace else {"holdout_seed": HOLDOUT_SEED}),
        "order": "even pairs run the parent first, odd pairs the change first",
        "environment": {
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    traced = [args.trace] if args.trace else workloads
    runs: dict = {name: {} for name in traced}

    def write(complete: bool) -> None:
        summary = ({args.trace: _trace_summary(runs[args.trace], spec, seeds)} if args.trace
                   else _summary(runs, spec, seeds))
        payload = dict(header, complete=complete, summary=summary, runs=runs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    shown = "engine.evolve_ms" if args.trace else "ms_per_eval_at_ref"
    workdir = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(workdir, side) for side in commits}
        for side, commit in commits.items():
            _export(commit, trees[side])
        for i, seed in enumerate(seeds if args.trace else [*seeds, HOLDOUT_SEED]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in traced:
                for side in order:
                    result = _run(trees[side], name, seed, seconds, trace=bool(args.trace))
                    runs[name].setdefault(seed, {})[side] = result
                    print(f"pair {i} seed {seed} {name} {side}: "
                          f"{result.get(shown, result.get('error'))}",
                          file=sys.stderr, flush=True)
            write(complete=False)
        write(complete=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
