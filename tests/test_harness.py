import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotus_qaoa import engine, harness, optim, schedule
from lotus_qaoa.harness import (
    DepthTransferRow,
    SweepConfig,
    depth_transfer_experiment,
    improvement_summary,
    invariant_suite,
    optimizer_label,
    run_sweep,
    score_records,
    significance_matrix,
)
from lotus_qaoa.instance import CutResult, WeightedGraph, gen_erdos_renyi
from lotus_qaoa.optim import baseline_optimize, lotus_optimize
from lotus_qaoa.records import RunRecord, append_record, load_records, write_csv


def make_record(seed=0, optimizer="powell", expectation=1.0, evaluations=100,
                k_modes=0, n_qubits=6, depth=4, p_graph=0.75, exact=None):
    return RunRecord(
        seed=seed, optimizer=optimizer, n_qubits=n_qubits, depth=depth,
        p_graph=p_graph, k_modes=k_modes, expectation=expectation,
        expectation_exact=expectation if exact is None else exact,
        iterations=max(1, evaluations // 10), evaluations=evaluations,
        best_cut=CutResult(bitstring="0" * n_qubits, cut_value=expectation),
        approx_ratio=0.9, wall_time=0.123,
    )


_SWEEP_TASK = harness._sweep_task


def _first_run_raises(task):
    """Stand-in for ``harness._sweep_task`` (module-level, so the pool can
    pickle it): the first run of TINY_CFG raises, the others run as usual."""
    if task[4:] == (0, "lotus", 1):  # seed index, optimizer, K
        raise RuntimeError("injected failure")
    return _SWEEP_TASK(task)


def _key_record(task):
    """Stand-in for ``harness._sweep_task`` that makes a record from the run key
    alone (module-level, so the pool can pickle it)."""
    _, n, p, density, seed_idx, optimizer, k_modes = task
    return harness._synthetic_record(seed_idx, optimizer, expectation=n + p / 7 + seed_idx / 3,
                                     evaluations=10 + k_modes, k_modes=k_modes, n_qubits=n,
                                     depth=p, p_graph=density)


def _threads_record(task):
    """Stand-in for ``harness._sweep_task`` whose record counts, as its
    evaluations, the BLAS threads of the worker that ran it."""
    record = _key_record(task)
    threads = harness._numpy_openblas().scipy_openblas_get_num_threads64_()
    return dataclasses.replace(record, evaluations=threads)


TINY_CFG = dict(qubits=(4,), depths=(2,), densities=(0.9,), modes=(1,),
                seeds=2, optimizers=("lotus", "nelder-mead"), shots=0,
                base_seed=3, budget=40, lotus_budget=30)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_RECORDS = st.builds(
    RunRecord,
    seed=st.integers(0, 2 ** 64 - 1), optimizer=st.text(min_size=1),
    n_qubits=st.integers(1, 20), depth=st.integers(1, 1024),
    p_graph=st.one_of(st.just(float("nan")), st.floats(0.0, 1.0)),
    k_modes=st.integers(0, 16), expectation=_ANY_FLOAT, expectation_exact=_ANY_FLOAT,
    iterations=st.integers(0, 10 ** 9), evaluations=st.integers(0, 10 ** 9),
    best_cut=st.builds(CutResult, bitstring=st.text("01", min_size=1, max_size=20),
                       cut_value=_ANY_FLOAT),
    approx_ratio=st.one_of(st.none(), _ANY_FLOAT), wall_time=st.floats(0.0, 1e9))


class TestRecordStore:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(records=st.lists(_RECORDS, max_size=5))
    def test_ndjson_round_trip_property(self, records):
        # repr tells NaNs apart from numbers and keeps every float bit; NaN != NaN
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.ndjson")
            open(path, "w").close()
            for record in records:
                append_record(path, record)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = load_records(path)
        assert [repr(r) for r in loaded] == [repr(r) for r in records]
        # resume matches loaded runs to the grid by key, NaN densities included
        assert {r.run_key() for r in loaded} == {r.run_key() for r in records}

    def test_json_round_trip_bit_exact(self):
        record = make_record(expectation=0.1 + 0.2, evaluations=137)
        again = RunRecord.from_json(record.to_json())
        assert again == record

    def test_none_approx_ratio(self):
        record = dataclasses.replace(make_record(), approx_ratio=None)
        assert RunRecord.from_json(record.to_json()).approx_ratio is None

    def test_csv_written(self, tmp_path):
        # the CSV row is the NDJSON dict: floats via repr, NaN as nan, None empty
        path = tmp_path / "r.csv"
        write_csv(str(path), [
            make_record(expectation=0.1 + 0.2, evaluations=137),
            dataclasses.replace(make_record(seed=1), p_graph=float("nan"), approx_ratio=None),
        ])
        assert path.read_bytes().decode() == (
            "seed,optimizer,n_qubits,depth,p_graph,k_modes,expectation,expectation_exact,"
            "iterations,evaluations,best_bitstring,best_cut_value,approx_ratio,wall_time\r\n"
            "0,powell,6,4,0.75,0,0.30000000000000004,0.30000000000000004,13,137,000000,"
            "0.30000000000000004,0.9,0.123\r\n"
            "1,powell,6,4,nan,0,1.0,1.0,10,100,000000,1.0,,0.123\r\n")

    def test_torn_final_line_dropped_with_warning(self, tmp_path):
        path = tmp_path / "r.ndjson"
        lines = [make_record(seed=s).to_json() for s in range(3)]
        path.write_text("\n".join(lines) + "\n" + lines[0][:17])
        with pytest.warns(RuntimeWarning, match="torn final line"):
            records = load_records(str(path))
        assert [r.seed for r in records] == [0, 1, 2]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "r.ndjson"
        lines = [make_record(seed=s).to_json() for s in range(3)]
        lines[1] = lines[1][:17]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_records(str(path))


class TestScore:
    def test_endpoint_example(self):
        group = [make_record(optimizer="a", expectation=2.0, evaluations=50),
                 make_record(optimizer="b", expectation=1.0, evaluations=100)]
        scores = score_records(group)
        assert scores[0] == harness.ScoreRecord(e_norm=1.0, i_norm=1.0, score=1.0, alpha=0.7)
        assert scores[1].score == 0.0

    def test_alpha_weighting(self):
        group = [make_record(optimizer="a", expectation=2.0, evaluations=100),
                 make_record(optimizer="b", expectation=1.0, evaluations=50)]
        scores = score_records(group, alpha=0.7)
        assert scores[0].score == pytest.approx(0.7)
        assert scores[1].score == pytest.approx(0.3)

    def test_singleton_group_scores_one(self):
        assert score_records([make_record()])[0].score == 1.0

    def test_degenerate_expectations(self):
        group = [make_record(optimizer="a", expectation=1.5, evaluations=50),
                 make_record(optimizer="b", expectation=1.5, evaluations=100)]
        scores = score_records(group)
        assert scores[0].e_norm == scores[1].e_norm == 1.0
        assert scores[0].i_norm == 1.0 and scores[1].i_norm == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            size = int(rng.integers(2, 6))
            records = [make_record(optimizer=f"o{i}",
                                   expectation=float(rng.uniform(0.5, 4)),
                                   evaluations=int(rng.integers(10, 500)))
                       for i in range(size)]
            base = score_records(records)
            a, b = float(rng.uniform(0.2, 5)), float(rng.uniform(-3, 3))
            moved = [dataclasses.replace(r, expectation=a * r.expectation + b)
                     for r in records]
            assert all(abs(x.score - y.score) < 1e-9
                       for x, y in zip(base, score_records(moved)))

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(1)
        records = [make_record(seed=int(rng.integers(3)), optimizer=f"o{i}",
                               expectation=float(rng.uniform(0, 5)),
                               evaluations=int(rng.integers(10, 500)))
                   for i in range(30)]
        for s in score_records(records):
            assert 0.0 <= s.score <= 1.0

    def test_best_on_both_axes_scores_exactly_one(self):
        group = [make_record(optimizer="a", expectation=3.0, evaluations=10),
                 make_record(optimizer="b", expectation=2.0, evaluations=20),
                 make_record(optimizer="c", expectation=1.0, evaluations=30)]
        assert score_records(group)[0].score == 1.0

    def test_grouping_by_cell(self):
        records = [make_record(seed=0, optimizer="a", expectation=1.0, evaluations=10),
                   make_record(seed=1, optimizer="a", expectation=9.0, evaluations=10)]
        scores = score_records(records)  # different cells: both singletons
        assert scores[0].score == scores[1].score == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            score_records([])


class TestImprovementSummary:
    def test_formula_anchor_quality(self):
        records = []
        for seed in range(5):
            base_e = 1.0 + seed
            records.append(make_record(seed=seed, optimizer="fd-lbfgs",
                                       expectation=base_e, evaluations=1000))
            records.append(make_record(seed=seed, optimizer="lotus", k_modes=2,
                                       expectation=1.272 * base_e, evaluations=1000))
        summary = improvement_summary(records)
        assert summary["fd-lbfgs"]["expectation_pct"] == pytest.approx(27.2)
        assert summary["fd-lbfgs"]["iteration_pct"] == pytest.approx(0.0)

    def test_formula_anchor_efficiency(self):
        records = []
        for seed in range(5):
            records.append(make_record(seed=seed, optimizer="powell",
                                       expectation=2.0, evaluations=3000))
            records.append(make_record(seed=seed, optimizer="lotus", k_modes=2,
                                       expectation=2.0, evaluations=201))
        summary = improvement_summary(records)
        assert summary["powell"]["iteration_pct"] == pytest.approx(93.3)

    def test_identical_datasets_zero_improvement(self):
        records = []
        for seed in range(4):
            records.append(make_record(seed=seed, optimizer="powell",
                                       expectation=1.7, evaluations=500))
            records.append(make_record(seed=seed, optimizer="lotus", k_modes=2,
                                       expectation=1.7, evaluations=500))
        summary = improvement_summary(records)
        assert summary["powell"] == {"expectation_pct": 0.0, "iteration_pct": 0.0, "cells": 4}

    def test_ambiguous_mode_count_requires_choice(self):
        records = [make_record(optimizer="lotus", k_modes=2),
                   make_record(optimizer="lotus", k_modes=3),
                   make_record(optimizer="powell")]
        with pytest.raises(ValueError, match="mode counts"):
            improvement_summary(records)
        assert improvement_summary(records, k_modes=2)["powell"]["cells"] == 1

    def test_no_shared_cells(self):
        records = [make_record(seed=0, optimizer="lotus", k_modes=2),
                   make_record(seed=1, optimizer="powell")]
        with pytest.raises(ValueError, match="shared"):
            improvement_summary(records)

    def test_unknown_density_records_share_a_cell(self, tmp_path):
        # a hand-built graph has no p_graph; each run writes its own NaN
        g = WeightedGraph(n=4, edges=((0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 0.7)))
        _, _, lotus = lotus_optimize(g, 2, k_modes=1, shots=0, seed=0, budget=20)
        _, _, powell = baseline_optimize(g, 2, method="powell", shots=0, seed=0, budget=20)
        records = [dataclasses.replace(lotus, optimizer="lotus"), powell]
        assert np.isnan(records[0].p_graph) and records[0].p_graph is not records[1].p_graph
        assert records[0].cell_key() == records[1].cell_key()
        assert improvement_summary(records)["powell"]["cells"] == 1
        path = tmp_path / "r.ndjson"
        path.write_text("".join(r.to_json() + "\n" for r in records))
        assert "NaN" in path.read_text()  # the stored form is unchanged
        assert improvement_summary(load_records(str(path)))["powell"]["cells"] == 1


class TestSignificance:
    def test_self_comparison_not_significant(self):
        records = [make_record(seed=s, optimizer="powell", expectation=float(s))
                   for s in range(8)]
        matrix = significance_matrix(records)
        assert matrix.labels == ["powell"]
        assert matrix.p_values[0, 0] == 1.0
        assert not matrix.significant[0, 0]

    def test_constant_offset_exact_pvalue(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(1, 2, 10)
        records = []
        for s in range(10):
            records.append(make_record(seed=s, optimizer="a", expectation=float(base[s])))
            records.append(make_record(seed=s, optimizer="b", expectation=float(base[s] + 1)))
        matrix = significance_matrix(records)
        i, j = matrix.labels.index("a"), matrix.labels.index("b")
        assert matrix.p_values[i, j] == pytest.approx(2 / 1024, abs=1e-12)
        assert matrix.significant[i, j]

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        records = []
        for s in range(12):
            for name in ("a", "b", "c"):
                records.append(make_record(seed=s, optimizer=name,
                                           expectation=float(rng.uniform(0, 3))))
        matrix = significance_matrix(records)
        assert np.allclose(matrix.p_values, matrix.p_values.T, equal_nan=True)

    def test_insufficient_pairs_marked(self):
        records = []
        for s in range(3):
            records.append(make_record(seed=s, optimizer="a", expectation=float(s)))
            records.append(make_record(seed=s, optimizer="b", expectation=float(s + 1)))
        matrix = significance_matrix(records)
        assert np.isnan(matrix.p_values).all()
        assert not matrix.significant.any()

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # significance_matrix loads scipy.stats when it runs, so a fresh
        # interpreter that imports the package (a CLI start, a benchmark's
        # setup) does not pay for it
        src = os.path.dirname(os.path.dirname(harness.__file__))
        code = ("import sys, lotus_qaoa; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_lotus_label_carries_mode_count(self):
        assert optimizer_label(make_record(optimizer="lotus", k_modes=3)) == "lotus[K=3]"
        assert optimizer_label(make_record(optimizer="powell")) == "powell"


class TestSweep:
    def test_record_accounting(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        records = run_sweep(cfg, workers=1)
        # 1 qubit count x 1 depth x 1 density x 2 seeds x (1 lotus K + 1 baseline)
        assert len(records) == 4
        assert sum(r.optimizer == "lotus" for r in records) == 2
        assert len(load_records(cfg.out)) == 4
        assert (tmp_path / "r.ndjson.csv").exists()

    def test_extra_modes_add_records(self, tmp_path):
        cfg = SweepConfig(**{**TINY_CFG, "modes": (1, 2)}, out=str(tmp_path / "r.ndjson"))
        records = run_sweep(cfg, workers=1)
        assert len(records) == 6  # 2 cells x (2 lotus modes + 1 baseline)

    def test_rerun_is_deterministic(self, tmp_path):
        cfg1 = SweepConfig(**TINY_CFG, out=str(tmp_path / "a.ndjson"))
        cfg2 = SweepConfig(**TINY_CFG, out=str(tmp_path / "b.ndjson"))
        payload1 = {r.run_key(): dataclasses.replace(r, wall_time=0.0)
                    for r in run_sweep(cfg1, workers=1)}
        payload2 = {r.run_key(): dataclasses.replace(r, wall_time=0.0)
                    for r in run_sweep(cfg2, workers=1)}
        assert payload1 == payload2

    def test_resume_completes_partial_file(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        records = run_sweep(cfg, workers=1)
        lines = (tmp_path / "r.ndjson").read_text().strip().splitlines()
        (tmp_path / "r.ndjson").write_text("\n".join(lines[:1]) + "\n")
        resumed = run_sweep(cfg, workers=1)
        assert len(resumed) == len(records)
        assert {r.run_key() for r in resumed} == {r.run_key() for r in records}

    def test_resume_after_torn_final_line(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        strip = lambda records: sorted(
            (r.run_key(), dataclasses.replace(r, wall_time=0.0)) for r in records)
        full = strip(run_sweep(cfg, workers=1))
        text = (tmp_path / "r.ndjson").read_text()
        last_start = text.rstrip("\n").rfind("\n") + 1
        last_len = len(text) - last_start
        # cut the last record after its first byte, mid-record, before its
        # closing brace, and before its newline (complete, so nothing is torn)
        for cut in (1, last_len // 2, last_len - 2, last_len - 1):
            (tmp_path / "r.ndjson").write_text(text[:last_start + cut])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                resumed = run_sweep(cfg, workers=1)
            torn = [w for w in caught if "torn final line" in str(w.message)]
            assert len(torn) == (cut < last_len - 1)
            assert strip(resumed) == full
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert strip(load_records(cfg.out)) == full

    def test_resume_after_a_cut_at_every_byte_of_the_last_line(self, tmp_path, monkeypatch):
        # records made from the run key keep each resume to a pool start-up
        monkeypatch.setattr(harness, "_sweep_task", _key_record)
        cfg = SweepConfig(**{**TINY_CFG, "seeds": 3}, out=str(tmp_path / "r.ndjson"))
        full = sorted(r.to_json() for r in run_sweep(cfg, workers=1))
        text = (tmp_path / "r.ndjson").read_bytes()
        last_start = text.rstrip(b"\n").rfind(b"\n") + 1
        for end in range(last_start, len(text) + 1):
            (tmp_path / "r.ndjson").write_bytes(text[:end])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                resumed = run_sweep(cfg, workers=1)
            torn = [w for w in caught if "torn final line" in str(w.message)]
            assert len(torn) == (last_start < end < len(text) - 1), end
            assert sorted(r.to_json() for r in resumed) == full, end
            stored = (tmp_path / "r.ndjson").read_bytes()
            assert stored.endswith(b"\n") and stored.count(b"\n") == len(full), end
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert sorted(r.to_json() for r in load_records(cfg.out)) == full, end

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_run_keeps_the_others(self, tmp_path, monkeypatch, workers):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        monkeypatch.setattr(harness, "_sweep_task", _first_run_raises)
        with pytest.warns(RuntimeWarning, match=r"run \(4, 2, 0.9, 0, 'lotus', 1\) failed"), \
                pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(cfg, workers=workers)
        survivors = load_records(cfg.out)
        assert len(survivors) == 3
        assert (4, 2, 0.9, 0, "lotus", 1) not in {r.run_key() for r in survivors}
        monkeypatch.undo()
        records = run_sweep(cfg, workers=workers)  # resumes: retries the failed run only
        assert len(records) == len(load_records(cfg.out)) == 4
        assert load_records(cfg.out)[:3] == survivors

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_run_one_blas_thread(self, tmp_path, monkeypatch, workers):
        # whatever the worker count; the caller keeps its own count
        lib = harness._numpy_openblas()
        if lib is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        before = lib.scipy_openblas_get_num_threads64_()
        monkeypatch.setattr(harness, "_sweep_task", _threads_record)
        cfg = SweepConfig(**{**TINY_CFG, "seeds": 3}, out=str(tmp_path / "r.ndjson"))
        assert {r.evaluations for r in run_sweep(cfg, workers=workers)} == {1}
        assert lib.scipy_openblas_get_num_threads64_() == before

    def test_pinning_without_the_bundled_openblas_does_nothing(self, monkeypatch):
        monkeypatch.setattr(harness, "_numpy_openblas", lambda: None)
        harness._pin_blas_threads()

    def test_exact_records_at_n16_do_not_depend_on_the_worker_count(self, tmp_path):
        # the exact expectation's np.vdot over 2^15 amplitudes is a threaded
        # BLAS reduction, whose bits depend on its thread count
        grid = dict(qubits=(16,), depths=(2,), densities=(0.5,), modes=(2,), seeds=2,
                    optimizers=("lotus", "powell"), shots=0, budget=30, lotus_budget=12)
        runs = [sorted(dataclasses.replace(r, wall_time=0.0).to_json() for r in run_sweep(
                    SweepConfig(**grid, out=str(tmp_path / f"w{workers}.ndjson")), workers))
                for workers in (1, 2)]
        assert runs[0] == runs[1]

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        run_sweep(cfg, workers=1)
        other = dataclasses.replace(cfg, base_seed=99)
        with pytest.raises(ValueError, match="different config"):
            run_sweep(other, workers=1)

    def test_resume_without_sidecar_rejected(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        run_sweep(cfg, workers=1)
        (tmp_path / "r.ndjson.config.json").unlink()
        before = (tmp_path / "r.ndjson").read_text()
        with pytest.raises(ValueError, match="no config sidecar"):
            run_sweep(cfg, workers=1)
        assert (tmp_path / "r.ndjson").read_text() == before
        assert not (tmp_path / "r.ndjson.config.json").exists()

    def test_sidecar_records_the_engine_version(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        run_sweep(cfg, workers=1)
        marks = json.loads((tmp_path / "r.ndjson.config.json").read_text())
        assert marks.pop("engine_version") == engine.ENGINE_VERSION
        assert marks == json.loads(cfg.to_json())

    def test_resume_with_another_engine_version_rejected(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        run_sweep(cfg, workers=1)
        sidecar = tmp_path / "r.ndjson.config.json"
        marks = json.loads(sidecar.read_text())
        marks["engine_version"] = engine.ENGINE_VERSION + 1
        sidecar.write_text(json.dumps(marks))
        before = (tmp_path / "r.ndjson").read_text()
        with pytest.raises(harness.ResumeRefused, match="engine version"):
            run_sweep(cfg, workers=1)
        assert (tmp_path / "r.ndjson").read_text() == before

    def test_sidecar_without_engine_version_resumes(self, tmp_path):
        # sidecars written before the engine version was recorded hold the config alone
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        full = run_sweep(cfg, workers=1)
        lines = (tmp_path / "r.ndjson").read_text().splitlines(keepends=True)
        (tmp_path / "r.ndjson").write_text("".join(lines[:2]))
        (tmp_path / "r.ndjson.config.json").write_text(cfg.to_json() + "\n")
        with pytest.warns(RuntimeWarning, match="may come from an older engine"):
            resumed = run_sweep(cfg, workers=1)
        strip = lambda r: dataclasses.replace(r, wall_time=0.0)
        assert ({r.run_key(): strip(r) for r in resumed}
                == {r.run_key(): strip(r) for r in full})

    def test_resumed_legacy_sidecar_keeps_no_engine_version(self, tmp_path):
        # its first records may predate this engine, so it is not labelled as this version
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        run_sweep(cfg, workers=1)
        lines = (tmp_path / "r.ndjson").read_text().splitlines(keepends=True)
        (tmp_path / "r.ndjson").write_text("".join(lines[:2]))
        sidecar = tmp_path / "r.ndjson.config.json"
        sidecar.write_text(cfg.to_json() + "\n")
        with pytest.warns(RuntimeWarning):
            run_sweep(cfg, workers=1)
        assert sidecar.read_text() == cfg.to_json() + "\n"
        assert "engine_version" not in json.loads(sidecar.read_text())

    def test_reload_and_rescore_identical(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        records = run_sweep(cfg, workers=1)
        scores = score_records(records)
        reloaded = load_records(cfg.out)
        assert score_records(reloaded) == scores

    def test_config_json_round_trip(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert SweepConfig.from_json_file(str(path)) == cfg

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(qubits=())
        with pytest.raises(ValueError):
            SweepConfig(seeds=0)

    def test_budgets_below_search_dimension_rejected(self):
        # a baseline at depth p searches 2p angles, HFA with K modes 3K + 4
        # hyperparameters; minimize() needs dimension + 2 evaluations
        with pytest.raises(ValueError, match="budget 9 below 10, the least a depth-4 baseline"):
            SweepConfig(depths=(2, 4), budget=9)
        with pytest.raises(ValueError, match="lotus_budget 17 below 18, the least a 4-mode lotus"):
            SweepConfig(modes=(2, 4), lotus_budget=17)
        SweepConfig(depths=(2, 4), budget=10, modes=(2, 4), lotus_budget=18)
        # each bound applies only when its optimizer is in the roster
        SweepConfig(depths=(4,), budget=1, optimizers=("lotus",))
        SweepConfig(modes=(4,), lotus_budget=1, optimizers=("powell",))
        # the benchmark's smoke-sized grids pass
        SweepConfig(depths=(8,), modes=(2, 3, 4), budget=40, lotus_budget=20)
        SweepConfig(depths=(6,), modes=(2,), budget=40, lotus_budget=20)

    def test_colliding_optimizer_ids_rejected(self):
        # run seeds tag an optimizer by its character-code sum
        for roster in (("powell", "lowpel"), ("powell", "powell")):
            with pytest.raises(ValueError, match="share run seeds"):
                SweepConfig(optimizers=roster)

    def test_default_grid_matches_benchmark_ranges(self):
        cfg = SweepConfig()
        assert cfg.qubits == (8, 12)
        assert cfg.depths == (4, 8, 16, 24)
        assert cfg.densities == (0.5, 0.75, 1.0)
        assert cfg.modes == (2, 3, 4)
        assert cfg.shots == 1024
        assert harness.DEFAULT_ALPHA == 0.7

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV_VAR, "3")
        assert harness.default_workers() == 3
        monkeypatch.setenv(harness.WORKERS_ENV_VAR, "junk")
        assert harness.default_workers() == 1


class TestDepthTransfer:
    def test_same_depth_zero_gap(self):
        g = gen_erdos_renyi(5, 0.8, seed=1)
        params, _, _ = lotus_optimize(g, 4, k_modes=1, shots=0, seed=2, budget=40)
        rows = depth_transfer_experiment(g, params, 4, (4, 4))
        assert rows[0].gap_from_prev is None
        assert rows[1].gap_from_prev == 0.0

    def test_hot_start_reports(self):
        g = gen_erdos_renyi(5, 0.8, seed=5)
        params, _, _ = lotus_optimize(g, 4, k_modes=1, shots=0, seed=6, budget=60)
        rows = depth_transfer_experiment(g, params, 4, (4, 8), hot_start=True,
                                         seed=7, budget=60)
        row = rows[1]
        assert row.cold_evaluations is not None and row.cold_evaluations >= 1
        assert row.warm_evaluations_to_match >= 1
        assert isinstance(row, DepthTransferRow)
        assert rows[0].cold_evaluations is None  # source depth is not re-optimized

    def test_every_evaluation_stays_in_the_lambda_box(self, monkeypatch):
        # the warm run starts next to the clamp, where an unbounded first
        # simplex (edge 0.25) would step past it
        g = gen_erdos_renyi(5, 0.8, seed=8)
        params = schedule.HfaParams(a=[0.3], b=[-0.2], lambda_gamma=0.95, lambda_beta=-0.9,
                                    delta_gamma0=0.1, delta_beta0=0.2, weights=[1.0])
        runs = []
        minimize = optim.minimize

        def recording(method, obj, x0, **kwargs):
            evaluate, seen = obj.evaluator, []
            obj.evaluator = lambda x: seen.append(np.array(x)) or evaluate(x)
            runs.append(seen)
            return minimize(method, obj, x0, **kwargs)

        monkeypatch.setattr(optim, "minimize", recording)
        depth_transfer_experiment(g, params, 2, (2, 4), hot_start=True, seed=9, budget=40)
        assert len(runs) == 6  # five cold restarts, then the warm run
        lambdas = np.array([x[2:4] for seen in runs for x in seen])
        assert lambdas.size > 0 and np.max(np.abs(lambdas)) <= optim.LAMBDA_CLAMP

    def test_warm_start_beats_cold_on_most_instances(self):
        wins = 0
        trials = 6
        for trial in range(trials):
            g = gen_erdos_renyi(6, 0.75, seed=40 + trial)
            params, _, _ = lotus_optimize(g, 4, k_modes=2, shots=0, seed=trial)
            rows = depth_transfer_experiment(g, params, 4, (4, 8), hot_start=True,
                                             seed=90 + trial)
            wins += rows[1].warm_evaluations_to_match <= rows[1].cold_evaluations
        assert wins / trials >= 0.7


class TestInvariantSuite:
    def test_fresh_build_passes(self):
        report = invariant_suite()
        assert report.all_passed, [c.name for c in report.failures()]
        assert all(type(c.passed) is bool for c in report.checks)  # not numpy's bool

    def test_corrupted_generator_fails_certificate_check(self, monkeypatch):
        real = schedule.hfa_generate

        def corrupted(params, p):
            sched = real(params, p)
            raw = sched.raw_gammas.copy()
            if raw.size >= 2:
                raw[-1] += 3.0  # inject a jump past the certified bound
            return dataclasses.replace(sched, raw_gammas=raw)

        monkeypatch.setattr(schedule, "hfa_generate", corrupted)
        report = invariant_suite()
        failed = {c.name for c in report.failures()}
        assert "lipschitz-certificate" in failed
