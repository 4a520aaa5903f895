"""Steadiness check for the benchmark.

    python3 bench/steady.py [--workload W ...] [--seeds 10] [--out FILE] [--compare FILE]

For each workload (by default those in BENCHMARK.json), runs
`bench/run.py` untraced once per seed (1, 2, ...), then once traced on
seed 1.  For every end-to-end metric it reports the median and the spread (Q3 - Q1) / median over the seeds, as
`statistics.quantiles(values, n=4)` gives the quartiles, against the
metric's bound in BENCHMARK.json.  The traced run repeats the first seed's
CLI calls, so its circuit fingerprints must equal the untraced ones.
With --compare, each median must also be no worse than the one in an
earlier summary by more than the bound.  Exits 1 when a run is incorrect,
a fingerprint differs, a spread reaches its bound, or a comparison fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run: the printed result line and the full result file."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, full


def prints(full: dict) -> dict[str, str]:
    return {i["id"]: i["sha256"] for i in full["instances"]}


def worse_by(metric: dict, new: float, old: float) -> float:
    """Relative change of `new` against `old` in the metric's bad direction."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    ok = True
    summary: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or names:
        seeds = list(range(1, args.seeds + 1))
        runs = {}
        for seed in seeds:
            line, full = bench(workload, seed, spec["run_seconds"], 0)
            runs[seed] = {"correct": line["correct"], "attempted": line["attempted"],
                          "failed": line["failed"], "prints": prints(full),
                          "metrics": {k: v["value"] for k, v in line["metrics"].items()}}
            summary.setdefault("provenance", full["provenance"])
            ok &= line["correct"]
            print(f"{workload} seed {seed}: correct {line['correct']}, "
                  f"{line['failed']}/{line['attempted']} failed", flush=True)
        line, traced = bench(workload, seeds[0], spec["run_seconds"], 1)
        ok &= line["correct"]
        same = prints(traced) == runs[seeds[0]]["prints"]
        ok &= same
        print(f"{workload} traced seed {seeds[0]}: correct {line['correct']}, "
              f"fingerprints {'repeat' if same else 'DIFFER'}")

        stats = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name] for r in runs.values()]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            status = "ok" if spread < bound / 3 else "wide" if spread < bound else "FAIL"
            ok &= status != "FAIL"
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "status": status}
            line_out = (f"  {name:16s} median {median:<14.6g} spread {spread:7.4f} "
                        f"bound {bound:5.3f} {status}")
            if workload in earlier:
                old = earlier[workload]["end_to_end"][name]["median"]
                change = worse_by(metric, median, old)
                stats[name]["worse_than_earlier"] = change
                line_out += f"  vs earlier {change:+.4f}"
                if change > bound:
                    ok = False
                    line_out += " WORSE"
            print(line_out)
        summary["workloads"][workload] = {
            "end_to_end": stats,
            "runs": runs,
            "traced": {k: traced[k] for k in ("per_layer", "accounting", "rounds",
                                              "attempted", "failed", "failures")},
            "traced_fingerprints_repeat": same,
            "failed_share": traced["end_to_end"]["failed_share"],
            "n1_stats_share": traced["n1_stats_share"],
            "failures_are_n1_stats": traced["failures_are_n1_stats"],
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
