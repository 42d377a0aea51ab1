"""In-memory spans recorded around the calls into each lotus_qaoa layer.

Tracing wraps module attributes at the point where the caller looks them
up (``engine.apply_mixer`` is looked up inside ``evolve``, ``optim`` imports
``brute_force_maxcut`` and ``hfa_generate`` by name, and so on), so the
package itself is not modified. A span is ``(name_id, start, end, parent)``
with ``parent`` the index of the enclosing span in the same process, or -1.
The span name's prefix before the first dot is the layer.

Sweep tasks run in pool workers. The traced task wrapper resets the
worker's span list, runs the original task under a ``harness.task`` span
and returns the record with the task's spans attached as an attribute that
the NDJSON serializer does not see; the parent collects them when the sweep
returns. Spans stay in memory until the benchmark writes them once at the
end.
"""
from __future__ import annotations

import time

import numpy as np

from lotus_qaoa import engine, harness, instance, optim
from lotus_qaoa.records import RunRecord

# (module, attribute, span name). Order fixes the name ids, so a worker
# that installs the patches itself (spawn start method) agrees with the
# parent on them.
_PATCHES = [
    (engine, "evolve", "engine.evolve"),
    (engine, "apply_cost_phase", "engine.phase"),
    (engine, "apply_mixer", "engine.mixer"),
    (engine, "expectation_exact", "engine.exact"),
    (engine, "expectation_sampled", "engine.sampled"),
    (engine, "sample_best_bitstring", "engine.best_bitstring"),
    (engine, "build_cost_diagonal", "engine.build_diag"),
    (engine, "_cut_values_all", "instance.cut_table"),
    (instance, "_cut_values_all", "instance.cut_table"),
    (instance, "gen_erdos_renyi", "instance.gen"),
    (optim, "brute_force_maxcut", "instance.brute_force"),
    (optim, "hfa_generate", "schedule.generate"),
    (optim, "standard_unpack", "schedule.generate"),
    (optim, "lotus_optimize", "optim.run"),
    (optim, "baseline_optimize", "optim.run"),
    (harness, "append_record", "records.append"),
]
NAMES = sorted({name for _, _, name in _PATCHES}
               | {"optim.minimize", "harness.task", "harness.run_sweep"})
NAME_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Span list and stack of one process, plus the patch bookkeeping."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.budget_hits = 0  # minimize() calls that spent their whole budget
        self.minimize_calls = 0
        self.append_lags: list[float] = []  # record appended minus task finished
        self._saved: list = []
        self._original_task = None

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.budget_hits = 0
        self.minimize_calls = 0
        self.append_lags.clear()

    def call(self, name: str, fn, *args, **kwargs):
        nid = NAME_ID[name]
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index] = (nid, start, time.perf_counter(), parent)
            stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _traced_minimize(self, fn):
        def traced(*args, **kwargs):
            outcome = self.call("optim.minimize", fn, *args, **kwargs)
            budget = kwargs.get("budget", args[3] if len(args) > 3 else optim.DEFAULT_BUDGET)
            self.minimize_calls += 1
            self.budget_hits += outcome.evaluations >= budget
            return outcome
        return traced

    def _traced_append(self, fn):
        def traced(path, record):
            self.call("records.append", fn, path, record)
            payload = getattr(record, "trace", None)
            if payload is not None:
                self.append_lags.append(time.perf_counter() - payload["finished"])
        return traced

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self.installed:
            return
        for module, attr, name in _PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapped = (self._traced_append(original) if name == "records.append"
                       else self._wrap(name, original))
            setattr(module, attr, wrapped)
        self._saved.append((optim, "minimize", optim.minimize))
        optim.minimize = self._traced_minimize(optim.minimize)
        self._saved.append((harness, "_sweep_task", harness._sweep_task))
        self._original_task = harness._sweep_task
        harness._sweep_task = traced_sweep_task

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


TRACER = Tracer()


def traced_sweep_task(args: tuple) -> RunRecord:
    """Stand-in for ``harness._sweep_task`` that runs inside pool workers.

    The task's spans ride back on the record as a non-field attribute:
    ``dataclasses.asdict`` (and so ``RunRecord.to_json``) sees only the
    declared fields, so the stored NDJSON line is unchanged.
    """
    TRACER.install()  # no-op after fork; needed under the spawn start method
    TRACER.reset()
    record = TRACER.call("harness.task", TRACER._original_task, args)
    object.__setattr__(record, "trace", {
        "spans": np.array(TRACER.spans, dtype=np.float64),  # 32 bytes a span to send back
        "minimize_calls": TRACER.minimize_calls,
        "budget_hits": TRACER.budget_hits,
        "finished": time.perf_counter(),
    })
    return record


class SpanTable:
    """Spans of several processes as flat arrays, with self times and roots.

    ``add`` takes the spans of one process (parents are indices into that
    list), the time from which its root spans count as measured, and a
    process label (the benchmark uses its pid, and negative labels for pool
    tasks).
    """

    def __init__(self) -> None:
        self._parts: list[tuple] = []

    def add(self, spans, measured_after: float, process: int) -> None:
        if len(spans):
            self._parts.append((np.asarray(spans, dtype=np.float64), measured_after, process))

    def arrays(self) -> dict[str, np.ndarray]:
        cols = {k: [] for k in ("name", "start", "end", "parent", "self", "measured", "run",
                                "process")}
        offset = 0
        for raw, measured_after, process in self._parts:
            name = raw[:, 0].astype(np.int64)
            parent = raw[:, 3].astype(np.int64)
            dur = raw[:, 2] - raw[:, 1]
            has_parent = parent >= 0
            child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                     minlength=len(raw))
            # Parents precede children, so one forward pass resolves the root
            # and the enclosing optimization run of every span.
            run_id = NAME_ID["optim.run"]
            root_list, run_list = [], []
            for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
                root_list.append(i if p < 0 else root_list[p])
                run_list.append(i if nid == run_id else (run_list[p] if p >= 0 else -1))
            root, run = np.array(root_list), np.array(run_list)
            cols["name"].append(name)
            cols["start"].append(raw[:, 1])
            cols["end"].append(raw[:, 2])
            cols["parent"].append(np.where(has_parent, parent + offset, -1))
            cols["self"].append(dur - child_time)
            cols["measured"].append(raw[root, 1] >= measured_after)
            cols["run"].append(np.where(run >= 0, run + offset, -1))
            cols["process"].append(np.full(len(raw), process, dtype=np.int64))
            offset += len(raw)
        return {k: np.concatenate(v) for k, v in cols.items()}
