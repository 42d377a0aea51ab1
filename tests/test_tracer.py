"""The benchmark's tracer (perfbench/tracer.py) still sees every layer of a run.

The tracer wraps module attributes where the package looks them up, so a
refactor that calls a layer by another path silently drops its spans. One
tiny HFA run and one tiny baseline run must show every traced layer, one
cut table per run and one ``minimize`` call per start, and every sweep
task must bring back its spans from the pool worker that ran it.
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lotus_qaoa import engine, harness, instance, optim

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # so the pool can pickle its task
    spec.loader.exec_module(module)
    module.TRACER.install()
    try:
        yield module
    finally:
        module.TRACER.uninstall()


def _span_counts(module) -> Counter:
    return Counter(module.NAMES[int(span[0])] for span in module.TRACER.spans)


def _layers_run(calls) -> int:
    """Layers that ``evolve`` runs for ``calls``, its (schedule, diag,
    workspace) arguments in order. A circuit shares its leading layers
    with the workspace's circuit before when their angles have the same
    bits and the diagonal is the same object, all but the last layer at
    most; it runs every layer after those it shares when the circuit
    before shared layers too (and so kept snapshots), else all p."""
    total, last = 0, {}
    for sched, diag, workspace in calls:
        bits = np.stack((sched.raw_gammas, sched.raw_betas)).view(np.int64)
        p = bits.shape[1]
        before = last.get(id(workspace))
        shared = 0
        if before is not None and before[1] is diag:
            changed = np.flatnonzero((bits != before[0]).any(axis=0))
            shared = min(changed[0] if changed.size else p, p - 1)
        total += p - (shared if before is not None and before[2] else 0)
        last[id(workspace)] = bits, diag, shared > 0
    return total


@pytest.mark.parametrize("run, starts, resumes", [
    (lambda g: optim.lotus_optimize(g, 2, k_modes=1, init=optim.LotusInitConfig(n_restarts=2),
                                    shots=256, seed=1, budget=20), 2, False),
    (lambda g: optim.baseline_optimize(g, 2, method="powell", shots=256, seed=1,
                                       budget=20), 1, True),
], ids=["lotus", "baseline"])
def test_tracer_sees_the_run_path(tracer, run, starts, resumes):
    g = instance.gen_erdos_renyi(5, 0.8, seed=2)
    tracer.TRACER.reset()
    calls, traced_evolve = [], engine.evolve

    def recorded(g, sched, diag=None, workspace=None):
        calls.append((sched, diag, workspace))
        return traced_evolve(g, sched, diag=diag, workspace=workspace)

    engine.evolve = recorded
    try:
        _, outcome, _ = run(g)
    finally:
        engine.evolve = traced_evolve
    counts = _span_counts(tracer)
    for name in ("optim.run", "optim.minimize", "schedule.generate", "engine.evolve",
                 "engine.phase", "engine.mixer"):
        assert counts[name] > 0, name
    assert counts["optim.run"] == 1
    assert counts["instance.cut_table"] == 1
    assert counts["optim.minimize"] == tracer.TRACER.minimize_calls == starts
    assert counts["engine.evolve"] == outcome.evaluations  # the readout reuses the best state
    # each evaluation runs each per-layer kernel once per layer it runs, as
    # an independent replay of the schedules handed to evolve counts them:
    # p = 2 for every HFA step, fewer once a Powell line search moves one
    # angle at a time
    assert len(calls) == outcome.evaluations
    assert counts["engine.phase"] == counts["engine.mixer"] == _layers_run(calls)
    assert (_layers_run(calls) < 2 * outcome.evaluations) == resumes


@pytest.mark.parametrize("workers", [1, 2])
def test_tracer_sees_each_sweep_task(tracer, tmp_path, workers):
    cfg = harness.SweepConfig(
        qubits=(4,), depths=(2,), densities=(0.9,), modes=(1,), seeds=1,
        optimizers=("lotus", "powell"), shots=0, budget=20, lotus_budget=10,
        out=str(tmp_path / "r.ndjson"))
    records = harness.run_sweep(cfg, workers=workers)
    assert len(records) == 2
    for record in records:
        counts = Counter(tracer.NAMES[int(span[0])] for span in record.trace["spans"])
        assert counts["harness.task"] == counts["optim.run"] == 1


def test_tracer_uninstall_restores_the_package(tracer):
    tracer.TRACER.uninstall()
    assert not tracer.TRACER.installed
    assert optim.minimize.__module__ == "lotus_qaoa.optim"
    assert optim.lotus_optimize.__module__ == "lotus_qaoa.optim"
