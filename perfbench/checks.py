"""Correctness gate of the benchmark.

Two parts: a set-up precheck that the statevector engine matches the dense
matrix-exponential oracle at n <= 6, and a per-record check of every run
the benchmark makes against an independent maximum cut.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from lotus_qaoa import engine, harness, instance, schedule

ORACLE_TOL = 1e-10  # engine vs dense oracle, as in acceptance criterion 1
ROUNDOFF = 1e-9  # relative; two summation orders of the same cut values


def engine_matches_dense_oracle(seed: int) -> float:
    """Largest amplitude error of ``engine.evolve`` against the dense oracle.

    Raises when it exceeds ORACLE_TOL. Graphs at n = 4, 5, 6 and random
    schedules of depth 3 are drawn from ``seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7001]))
    worst = 0.0
    for n in (4, 5, 6):
        g = instance.gen_erdos_renyi(n, 0.8, int(rng.integers(0, 2 ** 32)))
        sched = schedule.standard_unpack(rng.uniform(-np.pi, np.pi, 6), 3)
        fast = engine.evolve(g, sched).amps
        dense = harness.dense_oracle_state(g, sched)
        worst = max(worst, float(np.max(np.abs(fast - dense))))
    if worst > ORACLE_TOL:
        raise RuntimeError(f"engine deviates from the dense oracle by {worst:.2e}")
    return worst


def maxcut_oracle(g: instance.WeightedGraph) -> float:
    """Maximum cut weight, built node by node (independent of the package).

    After node k the table holds the cut of every assignment of nodes
    0..k; adding node k+1 appends its edges to the lower nodes, once for
    each side it can take.
    """
    w = np.zeros((g.n, g.n))
    for i, j, weight in g.edges:
        w[i, j] = w[j, i] = weight
    table = np.zeros(1)
    for k in range(g.n):
        to_lower = np.zeros(1)  # weight from node k to the lower nodes set to 1
        for j in range(k):
            to_lower = np.concatenate([to_lower, to_lower + w[j, k]])
        table = np.concatenate([table + to_lower, table + (w[:k, k].sum() - to_lower)])
    return float(table.max())


def record_problems(record, budget: int, g: instance.WeightedGraph, maxcut: float) -> list[str]:
    """Everything wrong with one run record; an empty list means it passed."""
    values = {
        "expectation": record.expectation,
        "expectation_exact": record.expectation_exact,
        "approx_ratio": record.approx_ratio,
        "best_cut_value": record.best_cut.cut_value,
        "wall_time": record.wall_time,
    }
    bad = [k for k, v in values.items() if v is None or not math.isfinite(v)]
    if bad:
        return [f"non-finite {', '.join(bad)}"]
    problems = []
    if record.approx_ratio > 1.0 + ROUNDOFF:
        problems.append(f"approx_ratio {record.approx_ratio!r} > 1")
    if abs(record.approx_ratio - record.expectation_exact / maxcut) > ROUNDOFF:
        problems.append(f"approx_ratio {record.approx_ratio!r} disagrees with the oracle "
                        f"maxcut {maxcut!r}")
    if not 1 <= record.evaluations <= budget:
        problems.append(f"evaluations {record.evaluations} outside [1, {budget}]")
    if record.best_cut.cut_value > maxcut * (1.0 + ROUNDOFF):
        problems.append(f"best_cut_value {record.best_cut.cut_value!r} > maxcut {maxcut!r}")
    recount = instance.cut_value(g, record.best_cut.bitstring)
    if abs(recount - record.best_cut.cut_value) > ROUNDOFF * max(1.0, maxcut):
        problems.append(f"best bitstring cuts {recount!r}, record says "
                        f"{record.best_cut.cut_value!r}")
    return problems


def same_result(a, b) -> bool:
    """Records of one input agree in everything but wall time."""
    return (dataclasses.replace(a, wall_time=0.0).to_json()
            == dataclasses.replace(b, wall_time=0.0).to_json())
