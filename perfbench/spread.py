#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--out FILE]

Run from the root of a checkout.  For each workload, runs run.py once
per seed with BENCHMARK.json's run_seconds, then prints every metric's
median, quartiles (statistics.quantiles, n=4) and the quartile spread
as a share of the median, next to the metric's bound.  Exits non-zero
if any run fails or reports an incorrect result.  --out writes the
figures as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "seeds": args.seeds,
        },
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("host: "):
                    report["host"]["run"] = line[len("host: "):]
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {out.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vs)}
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {workload:16s} {name:34s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
