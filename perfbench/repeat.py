"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/repeat.py --workloads lq_enkf,lq_stationary --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace-seed 0 --out perfbench/baseline.json

Runs are made one at a time, cycling through the workloads for each
seed.  For every end-to-end metric it prints the median and quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  ``--trace-seed`` adds one
traced run per workload; ``--out`` writes every run and the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    lines = out.stdout.strip().splitlines()
    report = dict(line.strip().split(": ", 1) for line in lines[1:-1]
                  if ": " in line)
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "report": report,
            "result": json.loads(lines[-1])}


def summarise(runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == w and not r["trace"]]
        rows = {}
        for name, bound in bounds.items():
            # a metric whose operation failed in a run is null there
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            values = [v for v in values if v is not None]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bound,
                          "n": len(values)}
        summary[w] = {
            "end_to_end": rows,
            "runs": len(mine),
            "failed_runs": sum(not r["result"]["correct"] for r in mine),
            "max_wall_s": max(r["wall_s"] for r in mine),
            "total_wall_s": sum(r["wall_s"] for r in mine),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        for w in names:
            r = one_run(w, seed, seconds, 0)
            m = r["result"]["metrics"]
            print(f"{w:16s} seed {seed:3d} wall {r['wall_s']:6.1f}s  "
                  + "  ".join(f"{k} {v['value']}" if v["value"] is None
                              else f"{k} {v['value']:.4g}"
                              for k, v in m.items())
                  + ("" if r["result"]["correct"] else "  NOT CORRECT"),
                  flush=True)
            runs.append(r)
    if args.trace_seed is not None:
        for w in names:
            runs.append(one_run(w, args.trace_seed, seconds, 1))
            print(f"{w:16s} traced wall {runs[-1]['wall_s']:.1f}s", flush=True)

    summary = summarise(runs, spec)
    for w, s in summary.items():
        print(f"{w}: {s['runs']} runs, {s['failed_runs']} not correct, "
              f"longest {s['max_wall_s']:.1f}s, total {s['total_wall_s']:.0f}s")
        for name, row in s["end_to_end"].items():
            flag = ("OVER BOUND" if row["spread"] > row["bound"] else
                    "over bound/3" if row["spread"] > row["bound"] / 3 else "")
            print(f"  {name:14s} median {row['median']:.5g}  "
                  f"q1 {row['q1']:.5g}  q3 {row['q3']:.5g}  "
                  f"spread {row['spread']:.3f} (bound {row['bound']}) {flag}")
    if args.out:
        import tracing
        layer_map = {name: {"workload": owner, "moves": moves}
                     for name, (_, owner, moves)
                     in tracing.LAYER_METRICS.items()}
        args.out.write_text(json.dumps(
            {"workloads": spec["workloads"], "summary": summary,
             "layer_map": layer_map, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
