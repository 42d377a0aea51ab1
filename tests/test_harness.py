import dataclasses
import json
import warnings

import numpy as np
import pytest

from lotus_qaoa import harness, schedule
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
    transfer_expectation,
)
from lotus_qaoa.instance import CutResult, gen_erdos_renyi
from lotus_qaoa.optim import lotus_optimize
from lotus_qaoa.records import RunRecord, load_records, write_csv


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


TINY_CFG = dict(qubits=(4,), depths=(2,), densities=(0.9,), modes=(1,),
                seeds=2, optimizers=("lotus", "nelder-mead"), shots=0,
                base_seed=3, budget=40, lotus_budget=30)


class TestRecordStore:
    def test_json_round_trip_bit_exact(self):
        record = make_record(expectation=0.1 + 0.2, evaluations=137)
        again = RunRecord.from_json(record.to_json())
        assert again == record

    def test_none_approx_ratio(self):
        record = dataclasses.replace(make_record(), approx_ratio=None)
        assert RunRecord.from_json(record.to_json()).approx_ratio is None

    def test_csv_written(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(str(path), [make_record(), make_record(seed=1)])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3 and lines[0].startswith("seed,optimizer")

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

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = SweepConfig(**TINY_CFG, out=str(tmp_path / "r.ndjson"))
        run_sweep(cfg, workers=1)
        other = dataclasses.replace(cfg, base_seed=99)
        with pytest.raises(ValueError, match="different config"):
            run_sweep(other, workers=1)

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

    def test_matches_transfer_expectation(self):
        g = gen_erdos_renyi(5, 0.8, seed=3)
        params, _, _ = lotus_optimize(g, 4, k_modes=1, shots=0, seed=4, budget=40)
        rows = depth_transfer_experiment(g, params, 4, (4, 8))
        assert rows[1].expectation == transfer_expectation(g, params, 8)

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
