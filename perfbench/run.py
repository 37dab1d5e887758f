"""pgcon benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload scca-gate --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the workload is solved in rounds until ``--seconds``
are used up and the end-to-end metrics (medians over rounds) are
printed.  Timed intervals are rescaled to the reference machine speed
with the kernel of ``reference.py``.
With ``--trace 1`` one round runs with only a QP-iteration counter
attached and one with the full layer trace of ``layers.py``;
the two must agree solve for solve on outer iterations, QP iterations
and the sha256 of the iteration ledger, and the per-layer metrics are
printed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record,
with the machine it ran on, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and everything it starts, so the
# two bench workers of corpus-sweep get a core each
THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # at least; one more is taken after every round
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import pgcon.driver, pgcon.bench, pgcon.scca, pgcon.corpus; "
    "print(time.perf_counter() - t0)"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ms_per_iter": "ms", "iters": "count",
    "solved_frac": "ratio", "sparsity": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "qp.s": "s", "qp.calls": "count", "qp.iters": "count", "qp.ms_per_iter": "ms",
    "qp.failed": "count", "qp.tangential_iters": "count", "qp.tr_iters": "count",
    "qp.factor_s": "s", "qp.factor_calls": "count", "qp.self_s": "s",
    "tangential.s": "s", "tangential.calls": "count", "tangential.build_s": "s",
    "tangential.warm_offered": "count",
    "normal_step.s": "s", "normal_step.calls": "count", "normal_step.active": "count",
    "normal_step.cauchy_s": "s", "normal_step.backtracks": "count",
    "normal_step.tr_s": "s", "normal_step.tr_won": "ratio",
    "problem.eval_s": "s", "problem.f_calls": "count", "problem.g_calls": "count",
    "problem.c_calls": "count", "problem.J_calls": "count",
    "globalization.accept_ratio": "ratio", "machine.speed": "ratio",
    "driver.s": "s", "driver.self_s": "s",
    "scca.generate_s": "s", "scca.init_s": "s", "corpus.build_s": "s",
    "bench.cpu_util": "ratio", "trace.overhead": "ratio", "fail_frac": "ratio",
}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pgcon").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # the build record is informational only
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_pins": THREAD_PINS,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _import_seconds() -> float:
    """Cold import of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def _warm_up():
    """Solve a small sparse-path SCCA cell and a dense corpus instance so
    lazily loaded code is in place before anything is timed."""
    from pgcon import corpus, driver, scca

    data = scca.scca_generate(48, 48, 48, 0)
    driver.solve(scca.scca_problem(data, 1e-2), driver.SolverConfig(alpha0=1e-3))
    inst = corpus.get_instance("eq-quad-1")
    driver.solve(inst.problem, driver.SolverConfig(**inst.config_overrides))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _fingerprints(rnd):
    return {rec.key: rec.fingerprint() for rec in rnd.records}


def _mismatches(a, b) -> list[str]:
    """Solves whose (iterations, QP iterations, ledger sha256) differ."""
    fa, fb = _fingerprints(a), _fingerprints(b)
    return [f"{key}: {fa.get(key)} != {fb.get(key)}"
            for key in sorted(set(fa) | set(fb)) if fa.get(key) != fb.get(key)]


def _record_rows(rnd) -> list[dict]:
    return [{"key": r.key, "ok": r.ok, "detail": r.detail, "iters": r.iters,
             "qp_iters": r.qp_iters, "ledger_sha256": r.ledger_sha} for r in rnd.records]


def _fill_run_scale(rounds, ref):
    """Rescale the rounds a workload left to the run's median kernel time."""
    for r in rounds:
        if r.scaled_wall_s is None:
            r.scaled_wall_s = r.wall_s * ref.run_scale()


def _end_to_end(rounds, setup_s) -> dict:
    # times are at the reference machine speed; the raw ones go to the record
    first = rounds[0]
    walls = [r.scaled_wall_s for r in rounds]
    iters = sum(r.iters for r in first.records)
    sparsities = [r.sparsity for r in first.records if r.sparsity == r.sparsity]
    attempted = sum(len(r.records) for r in rounds)
    solved = sum(rec.ok for r in rounds for rec in r.records)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ms_per_iter": statistics.median(1e3 * w / max(iters, 1) for w in walls),
        "iters": iters,
        "solved_frac": solved / attempted,
        "sparsity": statistics.fmean(sparsities) if sparsities else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _write_spans(path, phases):
    with gzip.open(path, "wt") as fh:
        for phase, spans in phases:
            for sid, parent, name, t0, t1, thread in spans:
                fh.write(json.dumps({"phase": phase, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "thread": thread}) + "\n")


def _stem(args) -> str:
    smoke = "_smoke" if args.smoke else ""
    return f"{args.workload}_seed{args.seed}_trace{args.trace}{smoke}"


def run(args, workload) -> tuple[dict, dict]:
    import layers
    from reference import Reference

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine_record()}
    _warm_up()
    ref = Reference()

    if args.trace == 0:
        # set-up samples are taken between rounds too, so their median
        # spans the run instead of one moment of a machine whose speed drifts
        import_s, build, raw_setup = [], [], []

        def sample_setup():
            raw_import, _, scale, after = ref.timed(_import_seconds)
            _, raw_build, build_scale, _ = ref.timed(workload.setup, after)  # same inputs
            import_s.append(raw_import * scale)
            build.append(raw_build * build_scale)
            raw_setup.append(raw_import + raw_build)

        sample_setup()
        rounds = []
        t_start = time.perf_counter()
        while True:
            rounds.append(workload.run_round(lambda: None, ref))
            sample_setup()
            elapsed = time.perf_counter() - t_start
            if elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break
        while len(import_s) < SETUP_SAMPLES:
            sample_setup()
        setup_s = statistics.median(import_s) + statistics.median(build)
        _fill_run_scale(rounds, ref)
        mismatches = [m for r in rounds[1:] for m in _mismatches(rounds[0], r)]
        metrics = _end_to_end(rounds, setup_s)
        info.update(import_s=import_s, build_s=build, raw_setup_s=raw_setup,
                    round_wall_s=[r.scaled_wall_s for r in rounds],
                    raw_round_wall_s=[r.wall_s for r in rounds])
        units = END_TO_END_UNITS
    else:
        tracer = layers.Tracer(timing=True)
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        setup_spans, _ = tracer.drain()

        light = layers.Tracer(timing=False)
        light.install()
        try:
            base = workload.run_round(light.last_solve_qp_iters, ref)
        finally:
            light.uninstall()

        tracer.install()
        cpu0 = _cpu_seconds()
        try:
            traced = workload.run_round(tracer.last_solve_qp_iters, ref)
        finally:
            cpu = _cpu_seconds() - cpu0
            tracer.uninstall()
        spans, counts = tracer.drain()

        rounds = [base, traced]
        _fill_run_scale(rounds, ref)
        mismatches = _mismatches(base, traced)
        records = traced.records
        metrics = layers.solve_metrics(spans, counts)
        metrics.update(layers.setup_metrics(setup_spans))
        metrics.update({
            "globalization.accept_ratio":
                sum(r.accepted_steps for r in records) / max(sum(r.steps for r in records), 1),
            "bench.cpu_util": cpu / (traced.wall_s * traced.workers),
            "trace.overhead": traced.scaled_wall_s / base.scaled_wall_s,
            "machine.speed": ref.run_scale(),
        })
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{_stem(args)}.spans.jsonl.gz"
        _write_spans(spans_path, [("setup", setup_spans), ("solve", spans)])
        info.update(spans_file=spans_path.name,
                    untraced_wall_s=base.scaled_wall_s, traced_wall_s=traced.scaled_wall_s,
                    raw_untraced_wall_s=base.wall_s, raw_traced_wall_s=traced.wall_s)
        units = PER_LAYER_UNITS

    failed = sum(not rec.ok for r in rounds for rec in r.records)
    attempted = sum(len(r.records) for r in rounds)
    metrics["fail_frac"] = failed / attempted
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    info.update(reference_s=ref.samples, determinism_mismatches=mismatches,
                failures=[{"key": rec.key, "detail": rec.detail}
                          for r in rounds for rec in r.records if not rec.ok],
                solves=_record_rows(rounds[-1]))
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "pgcon" / "__init__.py").is_file():
        print(f"error: no pgcon package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pgcon

    if Path(pgcon.__file__).resolve().parent != (SRC / "pgcon").resolve():
        print(f"error: imported pgcon from {pgcon.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, info = run(args, WORKLOADS[args.workload](args.seed, smoke=args.smoke))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{_stem(args)}.json"
    out.write_text(json.dumps({"result": result, **info}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
