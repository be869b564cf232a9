#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Run from the root of a source checkout:

    python3 perfbench/prove.py --runs 10 [--workloads host-mix,nic-steer]

For each workload, runs perfbench/run.py once per seed (seeds 1..runs
after --first-seed) with --trace 0 and the run length from
BENCHMARK.json. For each end-to-end metric it prints the median and
the interquartile spread as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound and a third of it. Exits 1 if a run fails or any spread other
than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="", help="append raw results (JSON lines)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - t0
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: exit {p.returncode}", flush=True)
                ok = False
                continue
            r = json.loads(last)
            print(f"{w} seed {seed}: {elapsed:.1f} s, host_rpc_per_s "
                  f"{r['metrics']['host_rpc_per_s']['value']:.1f}", flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **r}) + "\n")
            if not r["correct"] or r["failed"]:
                print(f"{w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
                ok = False
            for m in bounds:
                values[m].append(r["metrics"][m]["value"])
        print(f"== {w}")
        for m, vs in values.items():
            if len(vs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[m] / 3 else (
                "  > bound/3" if spread <= bounds[m] else "  > BOUND")
            if spread > bounds[m] and m != "setup_s":
                ok = False
            print(f"  {m:22s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[m]:.3f} (/3 {bounds[m] / 3:.4f}){flag}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
