#!/usr/bin/env python3
"""Full sets of benchmark runs and their comparison; called by run.sh.

  --all [--runs K] [--seed N] [--out FILE]
      Runs every workload of BENCHMARK.json: K timed runs (seeds N, N+1, ..),
      each in a process of its own so that peak_rss_mb is per run, then one
      traced run. Writes one results file.
  --compare A.json B.json
      Applies each end-to-end metric's direction and bound to the two
      medians: `worse` when B's median is worse than A's by more than the
      bound, `unresolved` when either side's own quartiles are further apart
      than the bound allows to tell, `ok` otherwise. The simulator's counts
      (core.sim_*) must be equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKERS = 2


def output_of(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def one_run(workload, seed, trace):
    cmd = [
        os.environ["BENCHMARK_BIN"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
        "--out-dir", os.environ["BENCHMARK_OUT"],
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args):
    results = {
        "stamp": {
            "commit": output_of("git", "rev-parse", "HEAD") or "unknown",
            "nproc": os.cpu_count(),
            "workers": WORKERS,
            "rustc": output_of("rustc", "--version"),
            "seeds": [args.seed + i for i in range(args.runs)],
            "run_seconds": SPEC["run_seconds"],
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        timed = [one_run(workload, seed, 0) for seed in results["stamp"]["seeds"]]
        traced = one_run(workload, args.seed, 1)
        end_to_end = {
            name: {"unit": metric["unit"], "values": [run["metrics"][name]["value"] for run in timed]}
            for name, metric in timed[0]["metrics"].items()
        }
        results["workloads"][workload] = {
            "correct": all(run["correct"] for run in timed + [traced]),
            "attempted": sum(run["attempted"] for run in timed),
            "failed": sum(run["failed"] for run in timed),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        for name, metric in end_to_end.items():
            print(f"{workload:18} {name:14} {summary(metric['values'])} {metric['unit']}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as out:
        json.dump(results, out, indent=1)
    print(f"results written to {args.out}")


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summary(values):
    q1, q2, q3 = quartiles(values)
    return f"median {q2:.6g} quartiles {q1:.6g}..{q3:.6g} spread {(q3 - q1) / q2:.1%}"


def compare(args):
    a, b = (json.load(open(path)) for path in args.compare)
    print(f"A: {a['stamp']}\nB: {b['stamp']}")
    worse = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in SPEC["end_to_end"]:
            va = wa["end_to_end"][metric["name"]]["values"]
            vb = wb["end_to_end"][metric["name"]]["values"]
            (a1, ma, a3), (b1, mb, b3) = quartiles(va), quartiles(vb)
            change = (mb - ma) / ma
            worsening = -change if metric["better"] == "higher" else change
            spread = max(a3 - a1, b3 - b1) / ma
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worsening > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            worse += verdict == "worse"
            print(
                f"{workload:18} {metric['name']:14} A {ma:<12.6g} B {mb:<12.6g} "
                f"change {change:+7.1%} spread {spread:6.1%} bound {metric['bound']:.0%} {verdict}"
            )
        for side, w in (("A", wa), ("B", wb)):
            if not w["correct"] or w["failed"]:
                print(f"{workload:18} {side}: correct {w['correct']} failed {w['failed']}/{w['attempted']}")
        for name in ("core.sim_total_s", "core.sim_net_bytes", "core.sim_compares", "core.sim_events"):
            xa, xb = wa["per_layer"][name]["value"], wb["per_layer"][name]["value"]
            if xa != xb and a["stamp"]["seeds"][0] == b["stamp"]["seeds"][0]:
                worse += 1
                print(f"{workload:18} {name}: A {xa} != B {xb} (must repeat exactly)")
    sys.exit(1 if worse else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xE41A)
    parser.add_argument("--out", default=os.path.join(os.environ["BENCHMARK_OUT"], "results.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        compare(args)
    elif args.all:
        run_all(args)
    else:
        parser.error("--all or --compare")


if __name__ == "__main__":
    main()
