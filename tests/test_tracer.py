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

import pytest

from lotus_qaoa import harness, instance, optim

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


@pytest.mark.parametrize("run, starts", [
    (lambda g: optim.lotus_optimize(g, 2, k_modes=1, init=optim.LotusInitConfig(n_restarts=2),
                                    shots=256, seed=1, budget=20), 2),
    (lambda g: optim.baseline_optimize(g, 2, method="powell", shots=256, seed=1,
                                       budget=20), 1),
], ids=["lotus", "baseline"])
def test_tracer_sees_the_run_path(tracer, run, starts):
    g = instance.gen_erdos_renyi(5, 0.8, seed=2)
    tracer.TRACER.reset()
    _, outcome, _ = run(g)
    counts = _span_counts(tracer)
    for name in ("optim.run", "optim.minimize", "schedule.generate", "engine.evolve",
                 "engine.phase", "engine.mixer"):
        assert counts[name] > 0, name
    assert counts["optim.run"] == 1
    assert counts["instance.cut_table"] == 1
    assert counts["optim.minimize"] == tracer.TRACER.minimize_calls == starts
    assert counts["engine.evolve"] == outcome.evaluations  # the readout reuses the best state
    # p = 2: each evaluation runs each per-layer kernel once per layer
    assert counts["engine.phase"] == counts["engine.mixer"] == 2 * outcome.evaluations


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
