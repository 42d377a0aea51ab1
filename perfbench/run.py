"""lotus-qaoa benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sweep-n8-exact --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, their timings scaled to the reference speed of the
host measured next to every run (see ``pace``); with ``--trace 1`` the run
records spans around every layer call and the object holds the per-layer
metrics instead.
Both write a result file (and the traced run its spans) under
``perfbench/out/``. The exit code is 0 only when every run passed the
correctness gate; 2 when the package source is missing.
"""
from __future__ import annotations

import os
import sys

# numpy's OpenBLAS starts one thread per core; with one sweep worker per
# core that oversubscribes the machine. Pin it before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HOLDOUT_SEED = 9001  # kept out of all tuning; use it to confirm a claimed gain
MAX_WORKERS = 2  # sweep pool size, capped by the CPUs this process may use
SETUP_REPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import lotus_qaoa; "
                "print(time.perf_counter() - t)")
COVERAGE_TOL = 0.02  # traced self times must cover the measured wall time to 2%

END_TO_END_UNITS = {
    "runs_per_s_at_ref": "1/s", "ms_per_eval_at_ref": "ms", "run_s_mean_at_ref": "s",
    "run_s_tail_at_ref": "s", "cpu_s_per_run_at_ref": "s", "approx_ratio_p50": "ratio",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "engine.mixer_us": "us", "engine.phase_us": "us", "engine.evolve_ms": "ms",
    "engine.evolve_calls": "count", "engine.exact_us": "us", "engine.sampled_us": "us",
    "engine.best_bitstring_ms": "ms", "engine.build_diag_ms": "ms",
    "instance.cut_table_builds": "count", "instance.cut_table_ms": "ms",
    "instance.brute_force_ms": "ms", "instance.gen_ms": "ms", "schedule.generate_us": "us",
    "optim.self_frac": "ratio", "optim.evals": "count", "optim.budget_hit_frac": "ratio",
    "records.append_ms": "ms", "harness.pool_busy_frac": "ratio",
    "harness.append_lag_s": "s",
}


class Pass(NamedTuple):
    """One pass: its records in run order, wall and CPU seconds it took."""

    records: list
    wall: float
    cpu: float


def _fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> float:
    """Import lotus_qaoa from this checkout's src/; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "lotus_qaoa", "__init__.py")):
        _fail_setup(f"package source not found at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import lotus_qaoa
    seconds = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(lotus_qaoa.__file__)) != os.path.join(SRC, "lotus_qaoa"):
        _fail_setup(f"imported lotus_qaoa from {lotus_qaoa.__file__}, not from {SRC}")
    return seconds


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or any finished child (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _import_seconds_fresh() -> tuple[float, float]:
    """Package import time in a fresh interpreter: raw, at the reference speed."""
    import pace

    env = dict(os.environ, PYTHONPATH=SRC)
    done, slowness = pace.loop(pace.SETUP_QUBITS).around(
        subprocess.run, [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True)
    seconds = float(done.stdout.strip())
    return seconds, seconds / slowness


def _environment(workers: int) -> dict:
    import numpy
    import scipy

    import lotus_qaoa
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)), "workers": workers,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name, "lotus_qaoa": lotus_qaoa.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(), "git_commit": commit,
    }


def _timings(passes: list[Pass], scale) -> dict:
    """Timing metrics, each run's times multiplied by ``scale(record)``.

    Per-pass figures are medians over the passes. A pass holds at most
    nine runs, too few for a percentile with ten runs beyond it, so the tail
    is the slowest run (the one that sets when a sweep ends), each run's
    time being its median over the passes. The typical run is a mean: run
    times cluster by optimizer (lotus near half the baselines' time on the
    n8 sweep), so a median sits between two clusters and jumps with the
    instance.
    """
    pass_scale = [statistics.mean(scale(r) for r in p.records) for p in passes]
    per_run = [statistics.median(r.wall_time * scale(r) for r in repeats)
               for repeats in zip(*(p.records for p in passes))]
    return {
        "runs_per_s": statistics.median(len(p.records) / (p.wall * f)
                                        for p, f in zip(passes, pass_scale)),
        "ms_per_eval": statistics.median(
            1e3 * sum(r.wall_time * scale(r) for r in p.records)
            / sum(r.evaluations for r in p.records) for p in passes),
        "run_s_mean": statistics.median(
            statistics.mean(r.wall_time * scale(r) for r in p.records) for p in passes),
        "run_s_tail": max(per_run),
        "cpu_s_per_run": statistics.median(p.cpu * f / len(p.records)
                                           for p, f in zip(passes, pass_scale)),
    }


def _end_to_end(passes: list[Pass], peak_mb: float, setup_s: float, attempted: int,
                failed: int) -> tuple[dict, dict]:
    """Timings at the reference speed (see ``pace``), quality, memory, set-up."""
    at_ref = _timings(passes, lambda r: 1.0 / r.slowness)
    values = {f"{k}_at_ref": v for k, v in at_ref.items()}
    values.update({
        "approx_ratio_p50": statistics.median(r.approx_ratio for r in passes[0].records),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    })
    detail = {"runs": sum(len(p.records) for p in passes), "passes": len(passes),
              "runs_per_pass": len(passes[0].records),
              "wall_s": [[r.wall_time for r in p.records] for p in passes],
              "slowness": [[r.slowness for r in p.records] for p in passes]}
    return values, detail


def _per_optimizer(runs: list) -> dict:
    groups: dict[str, list] = {}
    for r in runs:
        label = r.optimizer if r.k_modes == 0 else f"{r.optimizer}[K={r.k_modes}]"
        groups.setdefault(label, []).append(r)
    return {label: {"runs": len(rs),
                    "ms_per_eval": 1e3 * sum(r.wall_time for r in rs)
                    / sum(r.evaluations for r in rs),
                    "run_s_p50": statistics.median(r.wall_time for r in rs),
                    "evaluations_p50": statistics.median(r.evaluations for r in rs),
                    "approx_ratio_p50": statistics.median(r.approx_ratio for r in rs)}
            for label, rs in sorted(groups.items())}


def _check_runs(wl, inputs, passes: list[Pass]) -> tuple[int, list[str]]:
    """Check every record; returns (failed runs, messages)."""
    import checks

    failed, messages = 0, []
    expected = wl.runs_per_pass()
    reference = passes[0].records
    for index, (records, _, _) in enumerate(passes):
        if len(records) != expected:
            messages.append(f"pass {index}: {len(records)} records, expected {expected}")
            failed += abs(expected - len(records))
        for position, (record, first) in enumerate(zip(records, reference)):
            key = wl.key_of(record, position)
            problems = checks.record_problems(record, wl.budget_of(record), inputs.graphs[key],
                                              inputs.maxcuts[key])
            if not checks.same_result(record, first):
                problems.append("differs from the same run in pass 0")
            if problems:
                failed += 1
                messages.append(f"pass {index} run {position} ({record.optimizer}, "
                                f"K={record.k_modes}): {'; '.join(problems)}")
    return failed, messages


def _layer_metrics(arr, passes, tracer_mod, lags, minimize_calls, budget_hits,
                   workers) -> tuple[dict, dict]:
    import numpy as np

    names = arr["name"]
    dur = arr["end"] - arr["start"]
    measured = arr["measured"]
    ids = tracer_mod.NAME_ID

    def mask(name, only_measured=True):
        m = names == ids[name]
        return m & measured if only_measured else m

    def mean(name, scale, only_measured=True):
        m = mask(name, only_measured)
        return scale * float(dur[m].mean()) if m.any() else 0.0

    def total(name):
        return float(dur[mask(name)].sum())

    runs = [r for p in passes for r in p.records]
    layer_of = np.array([n.split(".")[0] for n in tracer_mod.NAMES])[names]
    optim_self = float(arr["self"][measured & (layer_of == "optim")].sum())
    sweep_s = total("harness.run_sweep")
    values = {
        "engine.mixer_us": mean("engine.mixer", 1e6),
        "engine.phase_us": mean("engine.phase", 1e6),
        "engine.evolve_ms": mean("engine.evolve", 1e3),
        "engine.evolve_calls": int(mask("engine.evolve").sum()) / len(runs),
        "engine.exact_us": mean("engine.exact", 1e6),
        "engine.sampled_us": mean("engine.sampled", 1e6),
        "engine.best_bitstring_ms": mean("engine.best_bitstring", 1e3),
        "engine.build_diag_ms": mean("engine.build_diag", 1e3),
        "instance.cut_table_builds": int(mask("instance.cut_table").sum()) / len(runs),
        "instance.cut_table_ms": mean("instance.cut_table", 1e3),
        "instance.brute_force_ms": mean("instance.brute_force", 1e3),
        "instance.gen_ms": mean("instance.gen", 1e3, only_measured=False),
        "schedule.generate_us": mean("schedule.generate", 1e6),
        "optim.self_frac": optim_self / total("optim.run"),
        "optim.evals": sum(r.evaluations for r in runs) / len(runs),
        "optim.budget_hit_frac": budget_hits / minimize_calls,
        "records.append_ms": mean("records.append", 1e3),
        "harness.pool_busy_frac": (total("harness.task") / (workers * sweep_s)
                                   if sweep_s else 0.0),
        "harness.append_lag_s": statistics.mean(lags) if lags else 0.0,
    }
    # Self times by layer over the measured region, and how much of the
    # measured wall time the spans of this process account for. In the
    # sweeps the main process's harness self time is mostly waiting on the
    # pool; the workers' self times add up to their task spans.
    main = arr["process"] == os.getpid()
    pass_wall = sum(p.wall for p in passes)
    detail = {
        "self_s_by_layer": {
            where: {layer: float(arr["self"][measured & part & (layer_of == layer)].sum())
                    for layer in sorted(set(layer_of[measured & part]))}
            for where, part in (("main", main), ("workers", arr["process"] < 0))},
        "main_process_coverage": float(arr["self"][measured & main].sum()) / pass_wall,
        "min_self_s": float(arr["self"].min()),
        "spans": int(len(names)),
        "per_run": _per_run_counts(arr, ids, runs),
    }
    return values, detail


def _per_run_counts(arr, ids, runs) -> list[dict]:
    """Evolve calls and cut-table builds inside each optimization run span."""
    import numpy as np

    names, run = arr["name"], arr["run"]
    # Measured run spans come in record order: each pool task is added with
    # its record, in order, and in-process runs are recorded as they start.
    run_spans = np.flatnonzero((names == ids["optim.run"]) & arr["measured"])
    out = []
    for span, record in zip(run_spans, runs):
        inside = run == span
        out.append({"optimizer": record.optimizer, "k_modes": record.k_modes,
                    "evaluations": record.evaluations,
                    "evolve_calls": int((inside & (names == ids["engine.evolve"])).sum()),
                    "cut_table_builds": int((inside & (names == ids["instance.cut_table"])).sum())})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"makes every input; {HOLDOUT_SEED} is the holdout seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's self-test")
    args = parser.parse_args(argv)

    import_s = _import_package()
    import numpy as np

    import checks
    import kernels
    import pace
    import tracer as tracer_mod
    from lotus_qaoa import instance, optim
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    workers = 1 if wl.in_process else max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))
    tracer = tracer_mod.TRACER
    if args.trace:
        tracer.install()

    def call(name, fn, *a, **kw):
        return tracer.call(name, fn, *a, **kw) if args.trace else fn(*a, **kw)

    # Set-up: instances and their oracle maxcuts, the engine-vs-dense-oracle
    # gate, and a small warm-up run; repeated, each repetition scaled to the
    # reference speed (see pace), the median is reported.
    setup_times, setup_at_ref = [], []
    setup_loop = pace.loop(pace.SETUP_QUBITS)
    for _ in range(1 if args.smoke else SETUP_REPS):
        before = setup_loop.slowness()
        start = time.perf_counter()
        inputs = wl.prepare(args.seed)
        oracle_error = checks.engine_matches_dense_oracle(args.seed)
        optim.lotus_optimize(instance.gen_erdos_renyi(6, 0.8, args.seed), 2,
                             init=optim.LotusInitConfig(n_restarts=1), shots=wl.shots,
                             seed=args.seed, budget=12)
        setup_times.append(time.perf_counter() - start)
        setup_at_ref.append(setup_times[-1] / (0.5 * (before + setup_loop.slowness())))
    setup_spans = list(tracer.spans)
    tracer.reset()
    if not args.trace:
        pace.install(wl.n, wl.in_process)

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    passes, errors, attempted, failed = [], [], 0, 0
    table = tracer_mod.SpanTable()
    minimize_calls = budget_hits = 0
    measure_start = time.perf_counter()
    try:
        while True:
            start, cpu_start = time.perf_counter(), _cpu_seconds()
            attempted += wl.runs_per_pass()
            try:
                records = wl.run_pass(inputs, args.seed, workers, scratch, len(passes), call)
            except Exception:  # a run that raises counts as failed; stop measuring
                failed += wl.runs_per_pass()
                errors.append(traceback.format_exc())
                break
            passes.append(Pass(records, time.perf_counter() - start,
                               _cpu_seconds() - cpu_start))
            for position, record in enumerate(records):
                payload = getattr(record, "trace", None)
                if payload is not None:
                    table.add(payload["spans"], -math.inf, process=-1 - position)
                    minimize_calls += payload["minimize_calls"]
                    budget_hits += payload["budget_hits"]
            elapsed = time.perf_counter() - measure_start
            if args.smoke or elapsed + elapsed / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_mb = _peak_rss_mb()

    if passes:
        check_failed, messages = _check_runs(wl, inputs, passes)
        failed += check_failed
        errors.extend(messages)
    imports = [_import_seconds_fresh() for _ in range(1 if args.smoke else SETUP_REPS)]
    setup_s = (statistics.median(at_ref for _, at_ref in imports)
               + statistics.median(setup_at_ref))

    runs = [r for p in passes for r in p.records]
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": _environment(workers),
        "config": {k: v for k, v in vars(wl).items() if k != "why"},
        "attempted": attempted, "failed": failed, "errors": errors,
        "passes": len(passes), "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "setup": {"import_s": import_s, "fresh_import_s": [raw for raw, _ in imports],
                  "rest_s": setup_times,
                  "oracle_max_error": oracle_error},
    }
    metrics = {}
    if runs:
        raw = _timings(passes, lambda r: 1.0)
        raw["peak_rss_mb"] = peak_mb
        result.update(raw=raw, per_optimizer=_per_optimizer(runs))
    if runs and not args.trace:
        e2e, e2e_detail = _end_to_end(passes, peak_mb, setup_s, attempted, failed)
        result.update(end_to_end=e2e, end_to_end_detail=e2e_detail)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}"
                        + ("-smoke" if args.smoke else ""))
    if args.trace and runs:
        table.add(setup_spans, math.inf, process=os.getpid())
        table.add(tracer.spans, measure_start, process=os.getpid())
        tracer.uninstall()
        arr = table.arrays()
        layers, detail = _layer_metrics(arr, passes, tracer_mod, tracer.append_lags,
                                        minimize_calls + tracer.minimize_calls,
                                        budget_hits + tracer.budget_hits, workers)
        coverage = detail["main_process_coverage"]
        if not (1.0 - COVERAGE_TOL <= coverage <= 1.0 + 1e-9) or detail["min_self_s"] < -1e-6:
            failed += len(runs)
            errors.append(f"spans do not partition the measured time: coverage {coverage:.4f}, "
                          f"smallest self time {detail['min_self_s']:.2e} s")
        untraced_path = stem.replace("-trace1", "-trace0") + ".json"
        if os.path.exists(untraced_path):
            with open(untraced_path, encoding="utf-8") as fh:
                untraced = json.load(fh).get("raw", {})
            detail["tracing_overhead"] = {k: raw[k] / untraced[k] - 1.0 for k in untraced
                                          if untraced[k]}
        rows = kernels.kernel_table((8,) if args.smoke else (8, 12, 16, 20), args.seed)
        print(kernels.format_table(rows), file=sys.stderr)
        result.update(per_layer=layers, per_layer_detail=detail, kernels=rows,
                      attempted=attempted, failed=failed, errors=errors)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
        np.savez_compressed(stem + "-spans.npz", names=np.array(tracer_mod.NAMES), **arr)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for message in errors:
        print(message, file=sys.stderr)
    correct = bool(runs) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
