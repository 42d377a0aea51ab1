"""Engine kernel table: one timing per kernel and size, with computed traffic.

Bytes moved and operations are computed from array sizes with the model in
``_model`` (one pass per numpy operation, temporaries included, cache
misses ignored). They are labelled as computed, never as measured: at
n = 20 the state is 2^20 complex128 entries (16 MiB) and the cut table
8 MiB, both far inside the 105 MiB L3 of the machine the workloads were
tuned on, so there the figures say nothing about DRAM bandwidth.
"""
from __future__ import annotations

import statistics
import time


from lotus_qaoa import engine, instance

SAMPLED_SHOTS = 1024
BEST_SHOTS = 8192
_MIN_TIME_S = 0.2  # repeat a kernel until this much time is spent ...
_MAX_REPS = 5  # ... or this many repetitions are done


def _mixer_blocks(n: int) -> list[int]:
    """Qubits per matmul of the block mixer: at most 4, split evenly."""
    count = -(-n // 4)
    base, extra = divmod(n, count)
    return [base + (b < extra) for b in range(count)]


def _model(kernel: str, n: int, edges: int) -> tuple[float, float]:
    """(operations, bytes) of one kernel call on a 2^n state."""
    size = float(1 << n)
    cut = (6.0 * size * edges, 20.0 * size * edges)  # shift, shift, xor, and, mul, add
    sample = (5.0 * size, 56.0 * size)  # |a|^2, cumsum; searchsorted is shots*log2(size)
    if kernel == "cut_table":
        return cut
    if kernel == "phase":  # exp(-i*g*v) into a temporary, then amps *= tmp
        return 10.0 * size, 72.0 * size
    if kernel == "mixer":  # per block: (size/2^k, 2^k) @ (2^k, 2^k), then a transpose copy
        blocks = _mixer_blocks(n)
        return (sum(8.0 * size * (1 << k) for k in blocks), 64.0 * size * len(blocks))
    if kernel == "exact":  # values*amps into a temporary, then vdot
        return 10.0 * size, 72.0 * size
    if kernel == "sampled_1024":
        return sample
    if kernel == "best_of_8192":  # rebuilds the cut table, then samples
        return cut[0] + sample[0], cut[1] + sample[1]
    raise KeyError(kernel)


def _time(fn) -> tuple[float, int]:
    times = []
    spent = 0.0
    while len(times) < _MAX_REPS and (spent < _MIN_TIME_S or not times):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times), len(times)


def kernel_table(sizes: tuple[int, ...], seed: int) -> list[dict]:
    rows = []
    for n in sizes:
        g = instance.gen_erdos_renyi(n, 0.5, seed + n)
        diag = engine.build_cost_diagonal(g)
        state = engine.plus_state(n)
        engine.apply_mixer(engine.apply_cost_phase(state, diag, 0.4), 0.3)
        kernels = {
            "cut_table": lambda: engine.build_cost_diagonal(g),
            "phase": lambda: engine.apply_cost_phase(state, diag, 0.4),
            "mixer": lambda: engine.apply_mixer(state, 0.3),
            "exact": lambda: engine.expectation_exact(state, diag),
            "sampled_1024": lambda: engine.expectation_sampled(state, diag, SAMPLED_SHOTS, 5),
            "best_of_8192": lambda: engine.sample_best_bitstring(state, g, BEST_SHOTS, 6),
        }
        for name, fn in kernels.items():
            seconds, reps = _time(fn)
            ops, nbytes = _model(name, n, len(g.edges))
            rows.append({
                "n": n, "kernel": name, "edges": len(g.edges), "median_s": seconds,
                "reps": reps, "computed_ops": ops, "computed_bytes": nbytes,
                "computed_ops_per_byte": ops / nbytes,
                "computed_gbytes_per_s": nbytes / seconds / 1e9,
            })
    return rows


def format_table(rows: list[dict]) -> str:
    lines = [f"{'n':>3} {'kernel':<13} {'median':>11} {'reps':>4} "
             f"{'ops/B (computed)':>17} {'GB/s (computed)':>16}"]
    for r in rows:
        t = r["median_s"]
        shown = f"{t * 1e3:.3f} ms" if t >= 1e-3 else f"{t * 1e6:.1f} us"
        lines.append(f"{r['n']:>3} {r['kernel']:<13} {shown:>11} {r['reps']:>4} "
                     f"{r['computed_ops_per_byte']:>17.3f} {r['computed_gbytes_per_s']:>16.2f}")
    return "\n".join(lines)
