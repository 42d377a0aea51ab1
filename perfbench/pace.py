"""Host speed, measured next to every optimization run.

The benchmark's reference machine is a 2-vCPU guest on a shared host whose
speed drifts by up to a factor of two within a minute as its other tenants
come and go (steal time stays near 2%; CPU seconds grow with wall seconds).
Sets of 30-second runs of ``sweep-n8-exact``, one after another, spread
(interquartile range over median) by 0.16 to 0.31, whether a run reported
the total, the median or the best of its passes.

So the untraced benchmark times a fixed reference loop -- a small
statevector simulation written here with numpy, independent of the
package, at the workload's qubit count -- right before and right after
every optimization run, in the process that runs it. The mean of the two
timings over the loop's nominal time is the host's *slowness* during the
run (1.0 at the nominal speed), and the run's times are divided by it. A
change to the package moves the scaled times; a change in the host's speed
moves the run and the loop alike and cancels. Alternating an n=8 run with
the 8-qubit loop for two minutes, the run's raw time varied by 49% between
blocks of 20 seconds and its scaled time by 3%. The loop must match the
state size: an n=20 ``evolve`` varied by 46% raw, 30% scaled by the
8-qubit loop and 12% scaled by a 20-qubit one. The raw times stay in the
result file.

Sweep runs are paced inside the pool worker that runs them
(``paced_sweep_task`` stands in for ``harness._sweep_task``, as the tracer's
task wrapper does); in-process runs around ``optim.lotus_optimize``. The
traced run is not paced: its spans would not cover the loop.
"""
from __future__ import annotations

import time

import numpy as np

from lotus_qaoa import harness, optim

# Qubits -> (layers in one timing, median seconds of one timing on the
# reference machine: 2-vCPU KVM guest, Xeon with AVX-512, numpy 2.4.6 on one
# thread, all three measured in one sitting). The layers make a timing last
# some tens of milliseconds, one layer at 20 qubits; the medians set only
# the scale of the reported times.
SIZES = {8: (160, 0.0424), 12: (60, 0.0376), 20: (1, 0.1667)}
SETUP_QUBITS = 8  # imports and set-up are interpreter-bound, like the 8-qubit loop
_MIXED_QUBITS = 8  # X rotations per layer

_C, _S = np.cos(0.3), np.sin(0.3)
_RX = np.array([[_C, -1j * _S], [-1j * _S, _C]])


class Loop:
    """The reference loop at ``n`` qubits: cost phase and X rotations."""

    def __init__(self, n: int) -> None:
        if n not in SIZES:
            raise ValueError(f"no reference loop size at {n} qubits; measure one")
        self.n = n
        self.layers, self.nominal_s = SIZES[n]
        self.diag = np.random.default_rng(2026).integers(0, 4 * n, 1 << n).astype(np.float64)

    def seconds(self) -> float:
        start = time.perf_counter()
        psi = np.full(1 << self.n, (1 << self.n) ** -0.5, dtype=np.complex128)
        for layer in range(self.layers):
            psi *= np.exp(-0.01j * (layer + 1) * self.diag)
            t = psi.reshape((2,) * self.n)
            for q in range(min(self.n, _MIXED_QUBITS)):
                t = np.moveaxis(np.tensordot(_RX, t, axes=([1], [q])), 0, q)
            psi = t.reshape(-1)
        np.vdot(psi, self.diag * psi)
        return time.perf_counter() - start

    def slowness(self) -> float:
        """This timing over the nominal one: 1.0 at the reference speed."""
        return self.seconds() / self.nominal_s

    def around(self, fn, *args, **kwargs):
        """``fn``'s result and the mean slowness just before and just after it."""
        before = self.slowness()
        result = fn(*args, **kwargs)
        return result, 0.5 * (before + self.slowness())


_LOOPS: dict[int, Loop] = {}


def loop(n: int) -> Loop:
    """The reference loop at ``n`` qubits, built once per process."""
    if n not in _LOOPS:
        _LOOPS[n] = Loop(n)
    return _LOOPS[n]


_ORIGINAL_TASK = harness._sweep_task
_ORIGINAL_LOTUS = optim.lotus_optimize


def paced_sweep_task(args: tuple):
    """Stand-in for ``harness._sweep_task``: the record carries ``slowness``,
    a non-field attribute the NDJSON serializer does not see."""
    record, slowness = loop(args[1]).around(_ORIGINAL_TASK, args)  # args[1] is n
    object.__setattr__(record, "slowness", slowness)
    return record


def _paced_lotus(g, *args, **kwargs):
    result, slowness = loop(g.n).around(_ORIGINAL_LOTUS, g, *args, **kwargs)
    object.__setattr__(result[-1], "slowness", slowness)
    return result


def install(n: int, in_process: bool) -> None:
    """Pace every run at ``n`` qubits: in-process ``lotus_optimize`` calls,
    or the tasks of a sweep (pool workers inherit the patch when forked)."""
    loop(n).seconds()  # build and warm up before the first run; workers inherit it
    if in_process:
        optim.lotus_optimize = _paced_lotus
    else:
        harness._sweep_task = paced_sweep_task

