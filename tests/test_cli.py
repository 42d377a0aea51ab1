import dataclasses
import json
import os

import numpy as np
import pytest

from lotus_qaoa import cli, harness
from lotus_qaoa.instance import load_graph
from lotus_qaoa.records import load_records


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-sweep")
    cfg = harness.SweepConfig(
        qubits=(4,), depths=(2,), densities=(0.9,), modes=(1,), seeds=5,
        optimizers=("lotus", "nelder-mead"), shots=0, base_seed=1,
        budget=40, lotus_budget=30, out=str(tmp_path / "results.ndjson"),
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(json.loads(cfg.to_json())))
    assert run_cli("run", "--config", str(cfg_path), "--workers", "1") == 0
    return cfg.out


class TestGen:
    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "-n", "6", "--p-graph", "0.8", "--seed", "4",
                       "--out", str(out)) == 0
        g = load_graph(str(out))
        assert g.n == 6 and g.seed == 4 and g.p_graph == 0.8


class TestRun:
    def test_produces_records_and_csv(self, result_file):
        records = load_records(result_file)
        assert len(records) == 10  # 5 seeds x (1 lotus mode + 1 baseline)
        assert os.path.exists(result_file + ".csv")

    def test_exact_flag_overrides_shots(self, tmp_path):
        cfg = harness.SweepConfig(
            qubits=(4,), depths=(2,), densities=(0.9,), modes=(1,), seeds=1,
            optimizers=("nelder-mead",), shots=512, base_seed=1, budget=40,
            out=str(tmp_path / "r.ndjson"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert run_cli("run", "--config", str(cfg_path), "--exact",
                       "--out", str(tmp_path / "exact.ndjson"), "--workers", "1") == 0
        record = load_records(str(tmp_path / "exact.ndjson"))[0]
        assert record.expectation == record.expectation_exact


class TestScoreReport:
    def test_score_writes_csv(self, result_file, tmp_path, capsys):
        assert run_cli("score", "--results", result_file) == 0
        out = capsys.readouterr().out
        assert "median score" in out
        scores_csv = result_file + ".scores.csv"
        lines = open(scores_csv).read().strip().splitlines()
        assert len(lines) == 11

    def test_report_tables(self, result_file, capsys):
        assert run_cli("report", "--results", result_file) == 0
        out = capsys.readouterr().out
        assert "nelder-mead" in out and "lotus[K=1]" in out
        assert "Wilcoxon" in out
        # the cost table: runs, median wall time, total ms over total
        # evaluations and median evaluations for each label
        cost = out.split("cost per label")[1].split("\n\n")[0].splitlines()[2:]
        rows = {line.split()[0]: line.split()[1:] for line in cost if line.strip()}
        by_label = {}
        for r in load_records(result_file):
            by_label.setdefault(harness.optimizer_label(r), []).append(r)
        assert rows.keys() == by_label.keys() == {"lotus[K=1]", "nelder-mead"}
        for label, (runs, wall, ms_per_eval, evals) in rows.items():
            mine = by_label[label]
            assert int(runs) == len(mine) == 5
            assert float(wall) == pytest.approx(np.median([r.wall_time for r in mine]), abs=5e-4)
            assert float(ms_per_eval) == pytest.approx(
                1e3 * sum(r.wall_time for r in mine) / sum(r.evaluations for r in mine),
                abs=5e-4)
            assert float(evals) == np.median([r.evaluations for r in mine])


class TestTransfer:
    def test_gap_table(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run_cli("gen", "-n", "5", "--p-graph", "0.9", "--seed", "2", "--out", str(inst))
        assert run_cli("transfer", "--instance", str(inst), "--source-depth", "2",
                       "--depths", "2,4", "--k-modes", "1", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "expectation" in out and " 4 " in out

    def test_bad_depth_list_exits_two(self, capsys):
        for depths in ("4,,8", "8,0", "x"):
            with pytest.raises(SystemExit) as err:
                run_cli("transfer", "--depths", depths)
            assert err.value.code == 2
            assert "positive depths" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--source-depth", "--k-modes"])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_non_positive_transfer_argument_exits_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            run_cli("transfer", flag, value)
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"need a positive integer, got {value!r}" in errors[0]


class TestCheck:
    def test_passes_on_fresh_build(self, capsys):
        assert run_cli("check") == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_fails_with_exit_one(self, monkeypatch, capsys):
        report = harness.SuiteReport(checks=[
            harness.CheckResult(name="stub", passed=False, detail="boom")])
        monkeypatch.setattr(harness, "invariant_suite", lambda: report)
        assert run_cli("check") == 1
        assert "[FAIL] stub" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli("gen", "-n", "4")
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_workers_exits_two(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--config", "cfg.json", "--workers", value)
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"need a positive integer, got {value!r}" in errors[0]

    @pytest.mark.parametrize("argv, message", [
        (("gen", "-n", "1", "--p-graph", "0.5"), "need n >= 2, got 1"),
        (("gen", "-n", "4", "--p-graph", "0"), "need 0 < p_graph <= 1, got 0.0"),
        (("transfer", "-n", "21"), "qubit cap 20 exceeded (n=21)"),
        (("transfer", "--p-graph", "1.5"), "need 0 < p_graph <= 1, got 1.5"),
    ])
    def test_bad_graph_arguments_exit_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "inst.json"
        if argv[0] == "gen":
            argv = (*argv, "--out", str(out))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("score", "--alpha", "1.5"), "need a number in [0, 1], got '1.5'"),
        (("score", "--alpha", "-0.1"), "need a number in [0, 1], got '-0.1'"),
        (("report", "--alpha", "0"), "need a number in (0, 1), got '0'"),
        (("report", "--alpha", "1"), "need a number in (0, 1), got '1'"),
        (("report", "--alpha", "nan"), "need a number in (0, 1), got 'nan'"),
        (("report", "--k-modes", "0"), "need a positive integer, got '0'"),
        (("run", "--config", "c.json", "--shots", "-5"), "need a non-negative integer, got '-5'"),
    ])
    def test_out_of_range_arguments_exit_two(self, capsys, argv, message):
        results = ("--results", "results.ndjson") if argv[0] in ("score", "report") else ()
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, *results)
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("damage, message", [
        ("no sidecar", "has no config sidecar"),
        ("other config", "was produced by a different config"),
        ("other engine", "was produced by engine version"),
    ])
    def test_refused_resume_exits_two(self, tmp_path, capsys, damage, message):
        out = tmp_path / "r.ndjson"
        cfg = harness.SweepConfig(
            qubits=(4,), depths=(2,), densities=(0.9,), modes=(1,), seeds=1,
            optimizers=("nelder-mead",), shots=0, base_seed=1, budget=40, out=str(out))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert run_cli("run", "--config", str(cfg_path), "--workers", "1") == 0
        sidecar = tmp_path / "r.ndjson.config.json"
        marks = json.loads(sidecar.read_text())
        if damage == "no sidecar":
            sidecar.unlink()
        elif damage == "other engine":
            marks["engine_version"] += 1
            sidecar.write_text(json.dumps(marks))
        before = out.read_text()
        capsys.readouterr()
        flags = ("--shots", "16") if damage == "other config" else ()
        assert run_cli("run", "--config", str(cfg_path), "--workers", "1", *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert out.read_text() == before

    def test_bad_input_files_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qubits": [4], "bogus": 1}))
        assert run_cli("run", "--config", str(cfg_path)) == 2
        assert run_cli("score", "--results", str(tmp_path / "missing.ndjson")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert "bogus" in err[0] and "missing.ndjson" in err[1]

    def test_budget_below_search_dimension_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qubits": [4], "depths": [4], "densities": [0.9],
                                        "modes": [1], "seeds": 1, "budget": 5,
                                        "out": str(tmp_path / "r.ndjson")}))
        assert run_cli("run", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "budget 5 below 10, the least a depth-4 baseline run accepts" in err[0]
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("field, value, flags, message", [
        ("modes", [0], (), "modes must lie in [1, inf]"),
        ("depths", [0], (), "depths must lie in [1, inf]"),
        ("optimizers", ["lotus", "cobyla"], (), "unknown optimizer 'cobyla'"),
        ("lotus_method", "cobyla", (), "unknown lotus_method 'cobyla'"),
        ("qubits", [1], (), "qubits must lie in [2, 20]"),
        ("qubits", [21], (), "qubits must lie in [2, 20]"),
        ("densities", [0.0], (), "densities must lie in (0, 1]"),
        ("densities", [1.5], (), "densities must lie in (0, 1]"),
        ("shots", -4, (), "shots must be >= 0"),
        ("budget", 5, (), "budget 5 below 6, the least a depth-2 baseline run accepts"),
        ("lotus_budget", 8, (), "lotus_budget 8 below 9, the least a 1-mode lotus run accepts"),
        ("seeds", 1.5, (), "seeds needs integers, got 1.5"),
        ("seeds", True, (), "seeds needs integers, got True"),
        ("qubits", [4.0], (), "qubits needs integers, got 4.0"),
        ("depths", [True], (), "depths needs integers, got True"),
        ("modes", [1.0], (), "modes needs integers, got 1.0"),
        ("shots", 16.0, (), "shots needs integers, got 16.0"),
        ("budget", 40.5, (), "budget needs integers, got 40.5"),
        ("lotus_budget", 20.0, (), "lotus_budget needs integers, got 20.0"),
        ("base_seed", 1.5, (), "base_seed needs integers, got 1.5"),
    ])
    def test_bad_sweep_grid_exits_two_before_any_run(self, tmp_path, capsys,
                                                      field, value, flags, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qubits": [4], "depths": [2], "densities": [0.9],
                                        "modes": [1], "seeds": 1,
                                        "out": str(tmp_path / "r.ndjson"), field: value}))
        assert run_cli("run", "--config", str(cfg_path), *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert list(tmp_path.iterdir()) == [cfg_path]  # no sidecar, no records

    @pytest.mark.parametrize("command, keep, flags, message", [
        ("score", "none", (), "no records to score"),
        ("report", "two mode counts", (),
         "several mode counts present [1, 2]; pick one with --k-modes"),
        ("report", "baselines", (), "no multi-start HFA records in the dataset"),
        ("report", "all", ("--k-modes", "3"), "no multi-start HFA records with K=3; present: [1]"),
    ])
    def test_unusable_records_exit_two(self, result_file, tmp_path, capsys,
                                       command, keep, flags, message):
        records = load_records(result_file)
        if keep == "none":
            records = []
        elif keep == "baselines":
            records = [r for r in records if r.k_modes == 0]
        elif keep == "two mode counts":
            records += [dataclasses.replace(r, k_modes=2) for r in records if r.k_modes]
        path = tmp_path / "r.ndjson"
        path.write_text("".join(r.to_json() + "\n" for r in records))
        assert run_cli(command, "--results", str(path), *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
