"""Command-line front end.

Subcommands:
  solve         solve one problem from a JSON problem file
  scca          generate + solve synthetic sparse-CCA instances
  bench         run a benchmark suite (corpus and/or an SCCA grid)
  corpus-check  validate every built-in oracle instance

solve, scca and bench build cells and run them through
``bench.run_benchmark``, so every solve is loaded, timed, guarded and
tabulated by the same code; a solver exception becomes an "Error" row
(or report), never a traceback.

Exit codes: 0 success (KKT point / suite completed / corpus valid),
2 certified infeasible stationary point, 1 limits or failures (a solver
exception included), 64 usage errors.  A machine-readable JSON report is
always written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import scca
from .bench import (BenchCell, corpus_suite, profile_to_csv, result_row,
                    results_to_csv, run_benchmark, scca_suite)
from .corpus import validate_corpus
from .driver import SolverConfig, ledger_to_csv, report_to_json
from .problem import load_problem

USAGE_ERROR = 64

_STATUS_EXIT = {"KktPoint": 0, "InfeasibleStationary": 2}


def _parse_override(text: str):
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    return key.strip(), raw.strip()


def _coerce(key: str, raw: str, defaults: dict):
    if key not in defaults:
        raise ValueError(f"unknown config key {key!r}")
    kind = type(defaults[key])
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if kind in (int, float, str):
        return kind(raw)
    return json.loads(raw)


def load_config(path=None, overrides=(), **direct) -> SolverConfig:
    """Defaults, then a JSON config file, then key=value overrides, each
    typed by its field's default."""
    data = {}
    if path:
        with open(path) as fh:
            data.update(json.load(fh))
    data.update(direct)
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    for item in overrides:
        key, raw = _parse_override(item)
        data[key] = _coerce(key, raw, defaults)
    return SolverConfig.from_dict(data)


def write_config(cfg: SolverConfig, path):
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _flag_overrides(args) -> dict:
    out = {}
    if getattr(args, "alpha_rule", None) is not None:
        out["alpha_rule"] = args.alpha_rule
    if getattr(args, "time_limit", None) is not None:
        out["time_limit"] = args.time_limit
    if getattr(args, "max_iter", None) is not None:
        out["max_iter"] = args.max_iter
    return out


def _print_results(results):
    for r in results:
        line = f"{r.instance} seed={r.seed}: {r.status}"
        if r.time_s is not None:
            line += f" ({r.time_s:.1f}s)"
        if r.metrics is not None:
            line += f" rho={r.metrics.rho_xy:.4f} sr={r.metrics.sr:.4f} sl={r.metrics.sl}"
        if r.error:
            line += f"  [{r.error}]"
        print(line)


def _cmd_solve(args) -> int:
    cfg = load_config(args.config, args.set, **_flag_overrides(args))
    prob = load_problem(args.problem)
    res, = run_benchmark([BenchCell(prob.name, 0, lambda: (prob, None), cfg)])
    out = _out_dir(args)
    report = res.report
    if report is None:
        (out / "report.json").write_text(json.dumps(
            {"status": "Error", "problem": prob.name, "error": res.error}, indent=2))
        print(f"pgcon: {res.error}", file=sys.stderr)
        return 1
    (out / "ledger.csv").write_text(ledger_to_csv(report.records))
    (out / "report.json").write_text(report_to_json(report, {"problem": prob.name}))
    if args.verbose:
        print(f"{prob.name}: {report.status} in {report.iterations} iterations, "
              f"chi={report.chi:.3e}, ||c||={report.c_norm:.3e}")
    return _STATUS_EXIT.get(report.status, 1)


def _cmd_scca(args) -> int:
    cfg = load_config(args.config, args.set, alpha0=args.alpha0,
                      **_flag_overrides(args))
    results = run_benchmark(scca_suite([args.n], [args.lam], args.seed or [0], cfg,
                                       samples=args.N))
    out = _out_dir(args)
    for r in results:
        if r.report is not None:
            (out / f"ledger-seed{r.seed}.csv").write_text(ledger_to_csv(r.report.records))
    (out / "scca.json").write_text(json.dumps(
        {"config_hash": cfg.config_hash(), "rows": [result_row(r) for r in results]},
        indent=2, sort_keys=True))
    (out / "scca.csv").write_text(results_to_csv(results))
    if args.verbose:
        _print_results(results)
    return max(_STATUS_EXIT.get(r.status, 1) for r in results)


def _cmd_bench(args) -> int:
    cfg = load_config(args.config, args.set, **_flag_overrides(args))
    cells = []
    if args.suite in ("corpus", "all"):
        cells += corpus_suite(cfg)
    if args.suite in ("scca", "all"):
        scfg = load_config(args.config, args.set, alpha0=scca.ALPHA0,
                           **_flag_overrides(args))
        cells += scca_suite(args.n or [200], args.lam or [1e-2, 1e-3, 1e-4],
                            args.seed or [0], scfg)
    results = run_benchmark(cells, threads=args.threads)
    out = _out_dir(args)
    label = f"{args.suite}-{cfg.alpha_rule}"
    (out / "results.csv").write_text(results_to_csv(results))
    (out / "profile.csv").write_text(profile_to_csv(results, label))
    n_err = sum(1 for r in results if r.status == "Error")
    (out / "bench.json").write_text(json.dumps({
        "cells": len(results), "errors": n_err,
        "statuses": {r.instance + f"-s{r.seed}": r.status for r in results},
    }, indent=2, sort_keys=True))
    if args.verbose:
        _print_results(results)
    return 1 if n_err else 0


def _cmd_corpus_check(args) -> int:
    insts = validate_corpus()
    out = _out_dir(args)
    (out / "corpus.json").write_text(json.dumps(
        [{"name": i.name, "note": i.note, "expected": i.expected_status}
         for i in insts], indent=2, sort_keys=True))
    if args.verbose:
        for inst in insts:
            print(f"{inst.name}: oracle certified ({inst.expected_status})")
    print(f"corpus-check: {len(insts)} oracle instances certified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pgcon", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="config override (repeatable)")
        sp.add_argument("--out", default="pgcon-out", help="output directory")
        sp.add_argument("--alpha-rule", choices=["hold", "min_cap", "verbatim_max"],
                        default=None, help="proximal update on accepted steps")
        sp.add_argument("--time-limit", type=float, default=None, metavar="SECS")
        sp.add_argument("--max-iter", type=int, default=None)
        sp.add_argument("--verbose", "-v", action="store_true")

    sp = sub.add_parser("solve", help="solve a problem file")
    sp.add_argument("--problem", required=True, help="JSON problem file")
    common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("scca", help="synthetic sparse-CCA run")
    sp.add_argument("--n", type=int, default=200, help="n_x = n_y (divisible by 8)")
    sp.add_argument("--N", type=int, default=None, help="samples (default n)")
    sp.add_argument("--lambda", dest="lam", type=float, default=1e-2)
    sp.add_argument("--seed", type=int, action="append", help="repeatable")
    sp.add_argument("--alpha0", type=float, default=scca.ALPHA0)
    common(sp)
    sp.set_defaults(func=_cmd_scca)

    sp = sub.add_parser("bench", help="run a benchmark suite")
    sp.add_argument("--suite", choices=["corpus", "scca", "all"], default="corpus")
    sp.add_argument("--n", type=int, action="append", help="SCCA sizes (repeatable)")
    sp.add_argument("--lambda", dest="lam", type=float, action="append")
    sp.add_argument("--seed", type=int, action="append")
    sp.add_argument("--threads", type=int, default=1,
                    help="cells solved in parallel (default 1)")
    common(sp)
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("corpus-check", help="validate oracle instances")
    common(sp)
    sp.set_defaults(func=_cmd_corpus_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"pgcon: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"pgcon: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
