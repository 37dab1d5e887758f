import json

import numpy as np
import pytest

from pgcon.bench import (
    corpus_suite,
    profile_to_csv,
    results_to_csv,
    run_benchmark,
    scca_suite,
    RESULT_COLUMNS,
)
from pgcon.cli import load_config, main, write_config
from pgcon.driver import SolverConfig
from pgcon.problem import BoxSet, problem_to_dict


class TestBench:
    def test_corpus_suite_runs(self):
        results = run_benchmark(corpus_suite(), threads=1)
        assert len(results) >= 10
        assert all(r.status != "Error" for r in results)
        csv = results_to_csv(results)
        assert csv.splitlines()[0] == ",".join(RESULT_COLUMNS)
        assert len(csv.splitlines()) == len(results) + 1

    def test_scca_cells_carry_metrics(self):
        cells = scca_suite([64], [1e-2], [0], SolverConfig(alpha0=1e-3))
        results = run_benchmark(cells)
        assert len(results) == 1
        assert results[0].metrics is not None
        assert results[0].metrics.sl == 0

    def test_parallel_matches_serial(self):
        cells = corpus_suite()
        a = run_benchmark(cells, threads=1)
        b = run_benchmark(cells, threads=4)
        assert [(r.instance, r.status, r.iters) for r in a] == \
               [(r.instance, r.status, r.iters) for r in b]

    def test_profile_rows_sortable(self):
        results = run_benchmark(corpus_suite())
        csv = profile_to_csv(results, "default")
        lines = csv.strip().splitlines()
        assert lines[0] == "instance,config,time_s,solved"
        solved = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
        assert all(s in (0, 1) for s in solved)

    def test_error_isolation(self):
        from pgcon.bench import BenchCell
        def boom():
            raise RuntimeError("nope")
        cells = corpus_suite()[:2] + [BenchCell("bad", 0, boom, SolverConfig())]
        results = run_benchmark(cells)
        by_name = {r.instance: r for r in results}
        assert by_name["bad"].status == "Error"
        assert "nope" in by_name["bad"].error
        assert sum(1 for r in results if r.status != "Error") == 2

    def test_grid_row_count(self):
        cells = scca_suite([64, 96], [1e-2, 1e-3, 1e-4], [0],
                           SolverConfig(alpha0=1e-3))
        assert len(cells) == 6

    def test_three_by_three_grid_runs_nine_rows(self):
        cells = scca_suite([32, 64, 96], [1e-2, 1e-3, 1e-4], [0],
                           SolverConfig(alpha0=1e-3))
        results = run_benchmark(cells)
        csv = results_to_csv(results)
        assert len(csv.strip().splitlines()) == 10  # header + 9 rows

    def test_scca_cli_alpha0_default(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scca", "--n", "32", "--out", str(out)]) == 0
        written = json.loads((out / "scca.json").read_text())["config_hash"]
        assert written == SolverConfig(alpha0=1e-3).config_hash()
        assert load_config(None, []).alpha0 == 10.0

    def test_scca_samples_set_n(self):
        cells = scca_suite([64], [1e-2], [0], samples=32)
        prob, _ = cells[0].make()
        assert "-N32-" in prob.name
        assert cells[0].config.alpha0 == 1e-3

    def test_scca_size_not_divisible_by_8_rejected(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            scca_suite([60], [1e-2], [0])

    def test_empty_seed_list_single_run(self):
        cells = scca_suite([64], [1e-2], [], SolverConfig(alpha0=1e-3))
        assert len(cells) == 1
        assert cells[0].seed == 0


class TestConfigIO:
    def test_round_trip_file(self, tmp_path):
        cfg = SolverConfig(alpha0=0.125, xi=0.25, alpha_rule="hold", scaling=False)
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        again = load_config(str(path))
        assert again == cfg

    def test_overrides_typed(self):
        cfg = load_config(None, ["tol_c=1e-8", "max_iter=77", "scaling=false",
                                 "alpha_rule=hold"])
        assert cfg.tol_c == 1e-8
        assert cfg.max_iter == 77
        assert cfg.scaling is False
        assert cfg.alpha_rule == "hold"
        assert load_config(None, ["x0=[1, 2]"]).x0.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            load_config(None, ["max_iter=1.5"])

    def test_out_of_range_rejected_with_name(self):
        with pytest.raises(ValueError, match="xi"):
            load_config(None, ["xi=1.5"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            load_config(None, ["bogus=3"])


class TestCli:
    def test_solve_problem_file(self, tmp_path):
        spec = problem_to_dict(
            "toy", np.eye(2), [-2.0, 0.0], A=[[1.0, 1.0]], b=[1.0],
            box=BoxSet.nonnegative(2), x0=[0.5, 0.5])
        prob_path = tmp_path / "toy.json"
        prob_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = main(["solve", "--problem", str(prob_path), "--out", str(out),
                     "--set", "tol_c=1e-6"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "KktPoint"
        assert (out / "ledger.csv").exists()

    def test_scca_row_schema(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scca", "--n", "64", "--lambda", "1e-2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "scca.json").read_text())["rows"]
        assert len(rows) == 1
        for key in ("rho_xy", "sr_x", "sr_y", "sr", "sl", "voc_x", "voc_y",
                    "time_s", "status"):
            assert key in rows[0]
        header = (out / "scca.csv").read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)
        assert set(RESULT_COLUMNS) <= set(rows[0])
        assert (out / "ledger-seed7.csv").exists()

    def test_scca_error_row_holds_nulls(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scca", "--n", "64", "--N", "-1", "--out", str(out)])
        assert code == 1
        row, = json.loads((out / "scca.json").read_text())["rows"]
        assert row["status"] == "Error"
        assert "N must be at least 1" in row["error"]
        for key in ("n", "iters", "time_s", "chi", "c_norm", "rho_xy", "sl"):
            assert row[key] is None
        line = (out / "scca.csv").read_text().splitlines()[1].split(",")
        assert line[RESULT_COLUMNS.index("status")] == "Error"
        assert line[RESULT_COLUMNS.index("chi")] == ""
        assert not list(out.glob("ledger-*.csv"))

    def test_solver_exception_writes_error_report(self, tmp_path, monkeypatch):
        # a ValueError from inside the solver is a failure (1), not a usage
        # error (64), and leaves a report behind
        import pgcon.bench

        def broken(prob, cfg):
            raise ValueError("box has lower_i > upper_i")

        monkeypatch.setattr(pgcon.bench, "solve", broken)
        prob = {"name": "x", "kind": "analytic:box-qp-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        out = tmp_path / "o"
        assert main(["solve", "--problem", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "Error"
        assert report["error"] == "ValueError: box has lower_i > upper_i"
        assert not (out / "ledger.csv").exists()

    def test_wrong_shape_x0_writes_error_report(self, tmp_path):
        prob = {"name": "x", "kind": "analytic:eq-quad-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        out = tmp_path / "o"
        assert main(["solve", "--problem", str(path), "--out", str(out),
                     "--set", "x0=0.5"]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "Error"
        assert "x0 has shape (), the problem needs (2,)" in report["error"]

    def test_corpus_check_exit_zero(self, tmp_path):
        assert main(["corpus-check", "--out", str(tmp_path / "o")]) == 0

    def test_infeasible_exit_two(self, tmp_path):
        # the certified-infeasible corpus instance through the problem-file path
        prob = {"name": "infeas", "kind": "analytic:infeas-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code = main(["solve", "--problem", str(path), "--out",
                     str(tmp_path / "o"), "--set", "alpha0=1.0"])
        assert code == 2

    def test_bad_override_exit_64(self, tmp_path):
        prob = {"name": "x", "kind": "analytic:box-qp-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code = main(["solve", "--problem", str(path), "--out",
                     str(tmp_path / "o"), "--set", "xi=banana"])
        assert code == 64

    @pytest.mark.parametrize("bad", [{"scaling": "no"}, {"max_iter": "50"},
                                     {"alpha0": "0.5"}, {"max_iter": 2.5}],
                             ids=["str-for-bool", "str-for-int", "str-for-float",
                                  "float-for-int"])
    def test_config_file_value_of_wrong_type_exit_64(self, tmp_path, capsys, bad):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:eq-quad-1"}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        code = main(["solve", "--problem", str(path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 64
        (name, _), = bad.items()
        assert f"pgcon: {name}=" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_max_backtracks_exit_64(self, tmp_path):
        # the Cauchy search's budget is a constant now: an unknown key
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:eq-quad-1"}))
        code = main(["solve", "--problem", str(path), "--out",
                     str(tmp_path / "o"), "--set", "max_backtracks=-1"])
        assert code == 64

    def test_usage_error_exit_64(self):
        assert main(["solve"]) == 64  # missing --problem

    def test_bench_corpus(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--suite", "corpus", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "profile.csv").exists()

    def test_max_iter_flag(self, tmp_path):
        prob = {"name": "x", "kind": "analytic:l1-sign-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        out = tmp_path / "o"
        code = main(["solve", "--problem", str(path), "--out", str(out),
                     "--set", "max_iter=1"])
        assert code == 1  # MaxIter is a limit failure
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "MaxIter"
        # the flag that shadowed --set is gone
        assert main(["solve", "--problem", str(path), "--out", str(out),
                     "--max-iter", "1"]) == 64

    def test_scca_config_file_over_suite_default(self, tmp_path):
        # precedence: the SCCA suite's alpha0, then --config, then --set
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha0": 0.5, "max_iter": 3}))
        for sets, alpha0 in (([], 0.5), (["--set", "alpha0=0.25"], 0.25)):
            out = tmp_path / f"out{alpha0}"
            main(["scca", "--n", "32", "--config", str(cfg_path), "--out", str(out)] + sets)
            written = json.loads((out / "scca.json").read_text())["config_hash"]
            assert written == SolverConfig(alpha0=alpha0, max_iter=3).config_hash()

    def test_bench_scca_cells_take_config_file(self, tmp_path, monkeypatch):
        import pgcon.bench
        seen = []
        real_solve = pgcon.bench.solve

        def recording(prob, cfg):
            seen.append((cfg.alpha0, cfg.max_iter))
            return real_solve(prob, cfg)

        monkeypatch.setattr(pgcon.bench, "solve", recording)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha0": 0.5, "max_iter": 3}))
        for sets, alpha0 in (([], 0.5), (["--set", "alpha0=0.25"], 0.25)):
            seen.clear()
            code = main(["bench", "--suite", "scca", "--n", "32", "--lambda", "1e-2",
                         "--lambda", "1e-3", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")] + sets)
            assert code == 0
            assert seen == [(alpha0, 3)] * 2
