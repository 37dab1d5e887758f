"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/baseline/sweep.json

Runs ``run.py`` once per (workload, seed), one run at a time, and reports
per metric the median, the quartiles of ``statistics.quantiles(n=4)`` and
their distance as a share of the median (the spread).  Workloads and
``--seconds`` default to those in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        runs = []
        machine = None
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            machine = json.loads((HERE / "results" / f"{name}_seed{seed}_trace{args.trace}.json")
                                 .read_text())["machine"]
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        report["workloads"][name] = {
            "runs": runs, "machine": machine,
            "metrics": {k: {"unit": units[k], **summarize(v)} for k, v in values.items()},
        }
        for key, s in report["workloads"][name]["metrics"].items():
            print(f"  {name:13s} {key:28s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
