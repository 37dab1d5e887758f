"""Command-line front end.

Subcommands:
  solve         solve one problem from a JSON problem file (one SCCA
                cell is a problem file of kind "scca")
  bench         run a benchmark suite (corpus and/or an SCCA grid)
  corpus-check  validate every built-in oracle instance

solve and bench build cells and run them through
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
import json
import sys
from pathlib import Path

from .bench import (BenchCell, corpus_suite, result_row, results_to_csv,
                    run_benchmark, scca_suite)
from .corpus import validate_corpus
from .driver import SolverConfig, ledger_to_csv, report_to_json
from .problem import load_problem

USAGE_ERROR = 64

_STATUS_EXIT = {"KktPoint": 0, "InfeasibleStationary": 2}


def _parse_override(text: str):
    """``key=value`` -> (key, value), the value read as JSON."""
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        raise ValueError(f"override {key}={raw.strip()} is not JSON") from None


def load_config(path=None, overrides=()) -> SolverConfig:
    """Field defaults, then a JSON config file, then key=value overrides;
    ``SolverConfig.from_dict`` checks the merged values once."""
    data = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} holds {type(data).__name__}, "
                             "not a JSON object")
    data.update(_parse_override(item) for item in overrides)
    return SolverConfig.from_dict(data)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_results(results):
    for r in results:
        lam = f" lambda={r.lam:g}" if r.lam == r.lam else ""
        line = f"{r.instance}{lam} seed={r.seed}: {r.status}"
        if r.time_s is not None:
            line += f" ({r.time_s:.1f}s)"
        if r.metrics is not None:
            line += f" rho={r.metrics.rho_xy:.4f} sr={r.metrics.sr:.4f} sl={r.metrics.sl}"
        if r.error:
            line += f"  [{r.error}]"
        print(line)


def _cmd_solve(args) -> int:
    cfg = load_config(args.config, args.set)
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


def _cmd_bench(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.suite == "corpus":
        grid = [flag for flag, value in (("--n", args.n), ("--lambda", args.lam),
                                         ("--seed", args.seed)) if value]
        if grid:
            raise ValueError(f"{', '.join(grid)}: --suite corpus runs no SCCA grid")
    cells = []
    if args.suite in ("corpus", "all"):
        cells += corpus_suite(cfg)
    if args.suite in ("scca", "all"):
        cells += scca_suite(args.n or [200], args.lam or [1e-2, 1e-3, 1e-4],
                            args.seed or [0], cfg)
    results = run_benchmark(cells)
    out = _out_dir(args)
    (out / "results.csv").write_text(results_to_csv(results))
    (out / "bench.json").write_text(json.dumps(
        {"config_hash": cfg.config_hash(), "rows": [result_row(r) for r in results]},
        indent=2, sort_keys=True))
    if args.verbose:
        _print_results(results)
    return 1 if any(r.status == "Error" for r in results) else 0


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
                        help="config override, its value JSON, "
                             "applied over --config (repeatable)")
        sp.add_argument("--out", default="pgcon-out", help="output directory")
        sp.add_argument("--verbose", "-v", action="store_true")

    sp = sub.add_parser("solve", help="solve a problem file")
    sp.add_argument("--problem", required=True, help="JSON problem file")
    common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("bench", help="run a benchmark suite")
    sp.add_argument("--suite", choices=["corpus", "scca", "all"], default="corpus")
    sp.add_argument("--n", type=int, action="append", help="SCCA sizes (repeatable)")
    sp.add_argument("--lambda", dest="lam", type=float, action="append")
    sp.add_argument("--seed", type=int, action="append")
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
