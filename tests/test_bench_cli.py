import dataclasses
import json
import threading

import pytest

from pgcon.bench import (
    corpus_suite,
    result_row,
    results_to_csv,
    run_benchmark,
    scca_suite,
    RESULT_COLUMNS,
)
from pgcon.cli import build_parser, load_config, main
from pgcon.driver import SolverConfig, _hash_point


class TestBench:
    def test_corpus_suite_runs(self):
        results = run_benchmark(corpus_suite(), threads=1)
        assert len(results) >= 10
        assert all(r.status != "Error" for r in results)
        csv = results_to_csv(results)
        assert csv.splitlines()[0] == ",".join(RESULT_COLUMNS)
        assert len(csv.splitlines()) == len(results) + 1
        # a row's solve time is the report's own clock
        for r in results:
            assert result_row(r)["time_s"] == r.report.wall_time

    def test_scca_cells_carry_metrics(self):
        cells = scca_suite([64], [1e-2], [0], SolverConfig(alpha0=1e-3))
        results = run_benchmark(cells)
        assert len(results) == 1
        assert results[0].metrics is not None
        assert results[0].metrics.sl == 0

    def test_cells_run_in_order_on_calling_thread(self):
        calls = []

        def traced(cell):
            def make(inner=cell.make):
                calls.append((cell.instance, threading.get_ident()))
                return inner()
            return dataclasses.replace(cell, make=make)

        cells = [traced(c) for c in reversed(corpus_suite())]
        results = run_benchmark(cells, threads=2)
        assert calls == [(c.instance, threading.get_ident()) for c in cells]
        names = [r.instance for r in results]
        assert names == sorted(names) and names != [c.instance for c in cells]

    def test_threads_keyword_has_no_effect(self):
        cells = corpus_suite()
        a = run_benchmark(cells, threads=1)
        b = run_benchmark(cells, threads=2)
        assert [(r.instance, r.status, r.report.iterations) for r in a] == \
               [(r.instance, r.status, r.report.iterations) for r in b]

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
        assert main(["bench", "--suite", "scca", "--n", "32", "--lambda", "1e-2",
                     "--out", str(out)]) == 0
        written = json.loads((out / "bench.json").read_text())["config_hash"]
        assert written == SolverConfig().config_hash()
        assert load_config(None, []).alpha0 == 10.0
        assert scca_suite([64], [1e-2], [0])[0].config.alpha0 == 10.0

    def test_two_lambda_grid_writes_one_row_per_cell(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bench", "--suite", "scca", "--n", "32", "--lambda", "1e-2",
                     "--lambda", "1e-3", "--out", str(out), "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "scca-32 lambda=0.001 seed=0", "scca-32 lambda=0.01 seed=0"]
        bench = json.loads((out / "bench.json").read_text())
        assert bench["config_hash"] == SolverConfig().config_hash()
        keys = {(row["instance"], row["lambda"], row["seed"]) for row in bench["rows"]}
        assert keys == {("scca-32", 1e-2, 0), ("scca-32", 1e-3, 0)}
        assert [row["status"] for row in bench["rows"]] == ["KktPoint"] * 2

    def test_scca_size_not_divisible_by_8_rejected(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            scca_suite([60], [1e-2], [0])

    def test_empty_seed_list_single_run(self):
        cells = scca_suite([64], [1e-2], [], SolverConfig(alpha0=1e-3))
        assert len(cells) == 1
        assert cells[0].seed == 0


class TestConfigIO:
    def test_round_trip_file(self, tmp_path):
        cfg = SolverConfig(alpha0=0.125, tol_stat=0.25, max_iter=77)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = load_config(str(path))
        assert again == cfg

    def test_overrides_typed(self):
        cfg = load_config(None, ["tol_c=1e-8", "max_iter=77", "time_limit=Infinity"])
        assert cfg.tol_c == 1e-8
        assert cfg.max_iter == 77
        assert cfg.time_limit == float("inf")
        with pytest.raises(ValueError):
            load_config(None, ["max_iter=1.5"])
        # JSON true is a bool, which no field takes
        for bad in ("max_iter=true", "alpha0=false"):
            with pytest.raises(ValueError, match="must be of type"):
                load_config(None, [bad])

    def test_out_of_range_rejected_with_name(self):
        with pytest.raises(ValueError, match="tol_stat"):
            load_config(None, ["tol_stat=-1.5"])

    def test_unknown_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="unknown"):
            load_config(None, ["bogus=3"])
        # scaling is always on: its old switch is no key
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:eq-quad-1"}))
        code = main(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                     "--set", "scaling=false"])
        assert code == 64
        assert "unknown config keys: ['scaling']" in capsys.readouterr().err
        # every solve checks its step inequalities: their old switch is no key
        code = main(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                     "--set", "check_invariants=true"])
        assert code == 64
        assert "unknown config keys: ['check_invariants']" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"check_invariants": True}))
        code = main(["solve", "--problem", str(path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 64
        assert "unknown config keys: ['check_invariants']" in capsys.readouterr().err
        # the start is the problem's, not a config key
        code = main(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                     "--set", "x0=[1, 2]"])
        assert code == 64
        assert "unknown config keys: ['x0']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # one value per field: its --set text and the same value in a --config file
    SAME_VALUE = {
        "alpha0": ("1", 1),
        "tol_c": ("1e-8", 1e-8),
        "tol_stat": ("2", 2),
        "tol_comp": ("0.5", 0.5),
        "max_iter": ("77", 77),
        "time_limit": ("60", 60),
    }

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)])
    def test_set_and_config_file_give_one_config(self, tmp_path, name):
        text, value = self.SAME_VALUE[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: value}))
        by_set, by_file = load_config(None, [f"{name}={text}"]), load_config(str(path))
        assert by_set.to_dict() == by_file.to_dict()
        assert by_set.config_hash() == by_file.config_hash()
        assert by_set.config_hash() != SolverConfig().config_hash()

    @pytest.mark.parametrize("content", ["[1, 2]", '"abc"'], ids=["list", "string"])
    def test_config_file_not_an_object_exit_64(self, tmp_path, capsys, content):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:eq-quad-1"}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code = main(["solve", "--problem", str(path), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 64
        assert f"config file {cfg} holds" in capsys.readouterr().err


class TestCli:
    def test_solve_problem_file(self, tmp_path):
        # min 0.5 |x|^2 - 2 x1  s.t.  x1 + x2 = 1, x >= 0
        prob_path = tmp_path / "toy.json"
        prob_path.write_text("""{
            "name": "toy", "kind": "quadratic", "n": 2, "m": 1,
            "data": {"Q": [[1.0, 0.0], [0.0, 1.0]], "c": [-2.0, 0.0],
                     "A": [[1.0, 1.0]], "b": [1.0], "x0": [0.5, 0.5]},
            "box": {"lower": [0.0, 0.0], "upper": ["inf", "inf"]}
        }""")
        out = tmp_path / "out"
        code = main(["solve", "--problem", str(prob_path), "--out", str(out),
                     "--set", "tol_c=1e-6"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "KktPoint"
        assert report["x"] == pytest.approx([1.0, 0.0], abs=1e-6)
        # the run starts at the file's data.x0
        row0 = (out / "ledger.csv").read_text().splitlines()[1]
        assert row0.split(",")[1] == _hash_point([0.5, 0.5])

    # a 1-D quadratic with one more key, or its data with one more entry
    QUAD_1D = '{"kind": "quadratic", "n": 1, "data": {"Q": [[1.0]], "c": [0.0]%s}%s}'

    @pytest.mark.parametrize("content, names", [
        ("[1, 2]", "holds list"),
        (QUAD_1D % ("", ', "box": {"lower": 0.0, "upper": 1.0}'),
         "box.lower has shape (), the problem needs (1,)"),
        (QUAD_1D % ("", ', "l1_weights": [[0.5, 0.5]]'),
         "l1_weights has shape (1, 2), the problem needs (1,)"),
        (QUAD_1D % ("", ', "l1_weights": [0.5, 0.5]'),
         "l1_weights has shape (2,), the problem needs (1,)"),
        (QUAD_1D % ("", ', "box": {"lower": [0.0], "upper": [1.0, 1.0]}'),
         "box.upper has shape (2,), the problem needs (1,)"),
        ('{"kind": "quadratic", "n": 1, "data": {"Q": [[1.0]], "c": [0.0, 1.0]}}',
         "data.c has shape (2,), the problem needs (1,)"),
        (QUAD_1D % (', "A": [[1.0]], "b": [0.0, 1.0]', ', "m": 1'),
         "data.b has shape (2,), the problem needs (1,)"),
        ('{"kind": "quadratic", "n": 2, "m": 1, "data": {"Q": [[1, 0], [0, 1]], '
         '"c": [0, 0], "A": [[1.0]], "b": [0.0]}}',
         "data.A has shape (1, 1), the problem needs (1, 2)"),
        ('{"kind": "quadratic", "n": 2, "data": {"Q": [1, 0, 0, 1], "c": [0, 0]}}',
         "data.Q has shape (4,), the problem needs (2, 2)"),
        (QUAD_1D % ("", ', "l1_weights": ["inf"]'), "l1 weights must be finite"),
        (QUAD_1D % ("", ', "l1_weights": [NaN]'), "l1 weights must be finite"),
        (QUAD_1D % ("", ', "box": {"lower": [NaN], "upper": [1.0]}'), "must not be NaN"),
        (QUAD_1D % ("", ', "box": {"lower": ["inf"], "upper": ["inf"]}'), "lower_i = inf"),
        (QUAD_1D % ("", ', "box": {"lower": ["-inf"], "upper": ["-inf"]}'),
         "upper_i = -inf"),
        (QUAD_1D % (', "x0": [NaN]', ""), "x0 must be finite"),
        (QUAD_1D % (', "x0": 0.5', ""), "x0 has shape (), the problem needs (1,)"),
    ], ids=["list", "scalar-bounds", "2d-weights", "long-weights", "long-upper", "long-c",
            "long-b", "short-A", "flat-Q", "inf-weight", "nan-weight", "nan-lower",
            "inf-lower", "-inf-upper", "nan-x0", "scalar-x0"])
    def test_malformed_problem_file_exit_64(self, tmp_path, capsys, content, names):
        path = tmp_path / "p.json"
        path.write_text(content)
        code = main(["solve", "--problem", str(path), "--out", str(tmp_path / "o")])
        assert code == 64
        err = capsys.readouterr().err
        assert f"pgcon: problem file {path}" in err
        assert names in err
        assert not (tmp_path / "o").exists()

    def test_scca_row_schema(self, tmp_path):
        out = tmp_path / "out"
        code = main(["bench", "--suite", "scca", "--n", "64", "--lambda", "1e-2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "bench.json").read_text())["rows"]
        assert len(rows) == 1
        assert set(rows[0]) == set(RESULT_COLUMNS) | {"error"}
        for key in ("rho_xy", "sr_x", "sr_y", "sr", "sl", "voc_x", "voc_y",
                    "time_s", "iters", "chi", "c_norm"):
            assert rows[0][key] is not None, key
        assert (rows[0]["status"], rows[0]["seed"], rows[0]["error"]) == ("KktPoint", 7, None)
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)
        assert sorted(p.name for p in out.iterdir()) == ["bench.json", "results.csv"]

    def test_scca_error_row_holds_nulls(self, tmp_path, monkeypatch):
        import pgcon.bench

        def broken(prob, cfg):
            raise RuntimeError("solver broke")

        monkeypatch.setattr(pgcon.bench, "solve", broken)
        out = tmp_path / "out"
        code = main(["bench", "--suite", "scca", "--n", "64", "--lambda", "1e-2",
                     "--out", str(out)])
        assert code == 1
        row, = json.loads((out / "bench.json").read_text())["rows"]
        assert row["status"] == "Error"
        assert row["error"] == "RuntimeError: solver broke"
        assert (row["n"], row["m"], row["lambda"]) == (130, 2, 1e-2)
        for key in ("iters", "time_s", "chi", "c_norm", "rho_xy", "sl"):
            assert row[key] is None
        line = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert line[RESULT_COLUMNS.index("status")] == "Error"
        assert line[RESULT_COLUMNS.index("chi")] == ""

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

    def test_corpus_check_exit_zero(self, tmp_path):
        assert main(["corpus-check", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("flag", [["--set", "alpha0=1"], ["--config", "cfg.json"]],
                             ids=["set", "config"])
    def test_corpus_check_takes_no_config(self, tmp_path, flag):
        # corpus-check runs no solve: a config flag is a usage error
        out = tmp_path / "o"
        assert main(["corpus-check", *flag, "--out", str(out)]) == 64
        assert not out.exists()

    def test_infeasible_exit_two(self, tmp_path):
        # the certified-infeasible corpus instance through the problem-file path
        prob = {"name": "infeas", "kind": "analytic:infeas-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        code = main(["solve", "--problem", str(path), "--out",
                     str(tmp_path / "o"), "--set", "alpha0=1.0"])
        assert code == 2

    def test_bad_override_exit_64(self, tmp_path, capsys):
        prob = {"name": "x", "kind": "analytic:box-qp-1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(prob))
        # a --set value is JSON (Infinity is the spelling of an infinite
        # float); text that is not JSON is a usage error that names its key
        for bad in ("tol_stat=banana", "max_iter=yes", "time_limit=inf",
                    "alpha_rule=hold"):
            code = main(["solve", "--problem", str(path), "--out",
                         str(tmp_path / "o"), "--set", bad])
            assert code == 64, bad
            key = bad.split("=")[0]
            assert f"pgcon: override {key}=" in capsys.readouterr().err
        # JSON text of the wrong type is rejected by the field
        code = main(["solve", "--problem", str(path), "--out",
                     str(tmp_path / "o"), "--set", "max_iter=true"])
        assert code == 64
        assert "max_iter=True must be of type int" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_override_without_equals_exit_64(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:box-qp-1"}))
        code = main(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                     "--set", "alpha0"])
        assert code == 64
        assert ("pgcon: override 'alpha0' is not of the form key=value"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_solve_verbose_prints_its_status_line(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:box-qp-1"}))
        assert main(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                     "--verbose"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert capsys.readouterr().out == (
            f"box-qp-1: KktPoint in {report['iterations']} iterations, "
            f"chi={report['chi']:.3e}, ||c||={report['c_norm']:.3e}\n")

    def test_corpus_check_verbose_prints_each_instance(self, tmp_path, capsys):
        assert main(["corpus-check", "--out", str(tmp_path / "o"), "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = json.loads((tmp_path / "o" / "corpus.json").read_text())
        assert lines == [f"{i['name']}: oracle certified ({i['expected']})" for i in listed] + [
            f"corpus-check: {len(listed)} oracle instances certified"]

    @pytest.mark.parametrize("bad", [{"max_iter": True}, {"max_iter": "50"},
                                     {"alpha0": "0.5"}, {"max_iter": 2.5}],
                             ids=["bool-for-int", "str-for-int", "str-for-float",
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

    def test_method_constant_is_not_a_key_exit_64(self, tmp_path):
        # the method's fixed parameters are constants, not config keys
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "x", "kind": "analytic:eq-quad-1"}))
        code = main(["solve", "--problem", str(path), "--out",
                     str(tmp_path / "o"), "--set", "xi=0.5"])
        assert code == 64
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

    def test_bench_threads_flag_is_a_usage_error(self, tmp_path):
        argv = ["bench", "--suite", "corpus", "--threads", "2",
                "--out", str(tmp_path / "bench")]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2  # argparse's own exit, remapped by main
        assert main(argv) == 64
        assert not (tmp_path / "bench").exists()

    def test_bench_corpus(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--suite", "corpus", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        bench = json.loads((out / "bench.json").read_text())
        assert set(bench) == {"config_hash", "rows"}
        assert len(bench["rows"]) == len(corpus_suite())
        assert {row["lambda"] for row in bench["rows"]} == {None}
        assert not (out / "profile.csv").exists()

    @pytest.mark.parametrize("flags", [["--n", "400"],
                                       ["--n", "400", "--lambda", "5", "--seed", "9"]])
    def test_bench_corpus_rejects_grid_flags(self, tmp_path, capsys, flags):
        out = tmp_path / "bench"
        assert main(["bench", "--suite", "corpus", "--out", str(out)] + flags) == 64
        err = capsys.readouterr().err
        for flag in flags[::2]:
            assert flag in err
        assert not out.exists()

    def test_scca_subcommand_is_gone(self, tmp_path):
        out = tmp_path / "scca"
        assert main(["scca", "--n", "48", "--lambda", "1e-2", "--out", str(out)]) == 64
        assert not out.exists()

    def test_solve_scca_problem_file_writes_its_ledger(self, tmp_path):
        # one SCCA cell is a problem file of kind "scca"
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({"name": "scca-32", "kind": "scca", "data": {
            "n_x": 32, "n_y": 32, "N": 32, "seed": 1, "lam": 1e-2}}))
        out = tmp_path / "o"
        assert main(["solve", "--problem", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "KktPoint"
        assert len((out / "ledger.csv").read_text().splitlines()) == report["iterations"] + 1

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

    def test_scca_config_layers(self, tmp_path):
        # precedence: the field default, then --config, then --set
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha0": 0.5, "max_iter": 3}))
        grid = ["bench", "--suite", "scca", "--n", "32", "--lambda", "1e-2"]
        for sets, alpha0 in (([], 0.5), (["--set", "alpha0=0.25"], 0.25)):
            out = tmp_path / f"out{alpha0}"
            main(grid + ["--config", str(cfg_path), "--out", str(out)] + sets)
            written = json.loads((out / "bench.json").read_text())["config_hash"]
            assert written == SolverConfig(alpha0=alpha0, max_iter=3).config_hash()
        main(grid + ["--set", "max_iter=3", "--out", str(tmp_path / "o")])
        written = json.loads((tmp_path / "o" / "bench.json").read_text())["config_hash"]
        assert written == SolverConfig(max_iter=3).config_hash()

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
            code = main(["bench", "--suite", "all", "--n", "32", "--lambda", "1e-2",
                         "--lambda", "1e-3", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")] + sets)
            assert code == 0
            # the corpus cells and both SCCA cells take one config
            assert len(seen) > 2 and set(seen) == {(alpha0, 3)}
