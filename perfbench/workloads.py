"""The benchmark workloads: what each generates from the seed and one pass.

A pass runs a fixed set of inputs made from the seed; the benchmark repeats
passes while another one fits in its time (at least one), so every pass
does the same work and the quality figures of a seed repeat exactly. A
sweep pass is small (six or nine runs) so that several fit in a run and
the timings are medians over passes. The package is driven through its
public entry points only: ``harness.run_sweep`` for the sweeps,
``optim.lotus_optimize`` for the one-shot runs, ``instance.gen_erdos_renyi``
for the graphs.

Why these three: the engine's cost splits by state size. At 2^8 amplitudes
every evaluation is per-call overhead (mixer block set-up, bound clamping,
the budget guard, pool and NDJSON appends); at 2^12 with 1024 shots the
sampled expectation replaces the exact one and the phase and mixer cost
about the same; at 2^20 the array sweeps (cut table built three times per
run, phase, mixer, 8192-shot readout, brute-force oracle) dominate and
optimizer overhead vanishes. A change aimed at one regime should move its
workload and leave the others alone.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from lotus_qaoa import harness, instance, optim

import checks


def _derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Inputs:
    """Graphs of one seed and their independently computed maximum cuts."""

    graphs: dict  # key -> WeightedGraph; key is the sweep seed index or run index
    maxcuts: dict  # key -> float

    @classmethod
    def of(cls, graphs: dict) -> "Inputs":
        return cls(graphs, {k: checks.maxcut_oracle(g) for k, g in graphs.items()})


@dataclass(frozen=True)
class SweepWorkload:
    """One cell of a ``harness.run_sweep`` grid, ``seeds`` instances per pass."""

    name: str
    why: str
    n: int
    p: int
    density: float
    modes: tuple[int, ...]
    optimizers: tuple[str, ...]
    shots: int
    seeds: int
    budget: int  # per baseline run
    lotus_budget: int | None = None  # per restart; None is the package default
    in_process = False

    def config(self, seed: int, out: str) -> harness.SweepConfig:
        return harness.SweepConfig(
            qubits=(self.n,), depths=(self.p,), densities=(self.density,), modes=self.modes,
            seeds=self.seeds, optimizers=self.optimizers, shots=self.shots, out=out,
            base_seed=seed, budget=self.budget, lotus_budget=self.lotus_budget)

    def runs_per_pass(self) -> int:
        return self.seeds * sum(len(self.modes) if o == "lotus" else 1 for o in self.optimizers)

    def prepare(self, seed: int) -> Inputs:
        # The sweep derives each instance from the cell; regenerate the same
        # graphs here so every record can be checked against its instance.
        cfg = self.config(seed, "unused")
        graphs = {i: instance.gen_erdos_renyi(
                      self.n, self.density,
                      harness._cell_instance_seed(cfg, self.n, self.p, self.density, i))
                  for i in range(self.seeds)}
        return Inputs.of(graphs)

    def budget_of(self, record) -> int:
        if record.k_modes == 0:
            return self.budget
        per_restart = (optim.LOTUS_BUDGET_PER_DIM * (3 * record.k_modes + 4)
                       if self.lotus_budget is None else self.lotus_budget)
        return optim.LotusInitConfig().n_restarts * per_restart

    def key_of(self, record, position: int) -> int:
        return record.seed

    def run_pass(self, inputs: Inputs, seed: int, workers: int, scratch: str, index: int,
                 call) -> list:
        out = os.path.join(scratch, f"pass{index}.ndjson")
        records = call("harness.run_sweep", harness.run_sweep, self.config(seed, out),
                       workers=workers)
        for suffix in ("", ".config.json", ".csv"):
            os.remove(out + suffix)
        return sorted(records, key=lambda r: r.run_key())

    def smoke(self) -> "SweepWorkload":
        return dataclasses.replace(self, seeds=1, budget=40, lotus_budget=20)


@dataclass(frozen=True)
class OneshotWorkload:
    """``instances`` single-restart ``lotus_optimize`` runs in this process."""

    name: str
    why: str
    n: int
    p: int
    density: float
    k_modes: int
    shots: int
    instances: int
    budget: int
    in_process = True

    def runs_per_pass(self) -> int:
        return self.instances

    def prepare(self, seed: int) -> Inputs:
        graphs = {i: instance.gen_erdos_renyi(self.n, self.density, _derived_seed(seed, 20, i))
                  for i in range(self.instances)}
        return Inputs.of(graphs)

    def budget_of(self, record) -> int:
        return self.budget

    def key_of(self, record, position: int) -> int:
        return position

    def run_pass(self, inputs: Inputs, seed: int, workers: int, scratch: str, index: int,
                 call) -> list:
        records = []
        for i, g in inputs.graphs.items():
            _, _, record = optim.lotus_optimize(
                g, self.p, k_modes=self.k_modes, init=optim.LotusInitConfig(n_restarts=1),
                shots=self.shots, seed=_derived_seed(seed, 21, i), budget=self.budget)
            records.append(record)
        return records

    def smoke(self) -> "OneshotWorkload":
        return dataclasses.replace(self, n=12, instances=1)


WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        name="sweep-n8-exact",
        why="criterion-7 cell at 2^8 amplitudes: per-call overhead of mixer, clamp, "
            "budget guard, worker pool and NDJSON appends",
        n=8, p=8, density=0.75, modes=(2, 3, 4),
        optimizers=("lotus", "nelder-mead", "powell", "fd-lbfgs"),
        shots=0, seeds=1, budget=optim.DEFAULT_BUDGET),
    SweepWorkload(
        name="sweep-n12-sampled",
        why="default 1024-shot protocol at 2^12: sampled expectation, 8192-shot "
            "verification and readout; phase and mixer cost alike",
        n=12, p=6, density=0.5, modes=(2,), optimizers=("lotus", "powell", "fd-lbfgs"),
        shots=1024, seeds=3, budget=600),
    OneshotWorkload(
        name="oneshot-n20",
        why="2^20-entry kernels dominate: cut table built 3x per run, phase, mixer, "
            "8192-shot readout, brute force; no pool or records",
        n=20, p=2, density=0.5, k_modes=2, shots=1024, instances=4, budget=12),
)}
