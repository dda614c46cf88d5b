"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train-cv explain --seeds 1-10
        [--seconds 30] [--trace-seed 7] [--out FILE]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound in BENCHMARK.json.  With `--trace-seed` it adds one
traced run per workload and keeps its per-layer table.  `--out` writes
everything, with the environment record, as JSON (perfbench/results/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            detail, result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "samples": detail["samples"]})
            report["env"], params = detail["env"], detail["params"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in bounds:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds[name]}
            print(f"  {workload:9s} {name:14s} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['spread']:.4f}  bound {bounds[name]}", flush=True)
        entry = {"params": params, "summary": summary, "runs": runs}
        if args.trace_seed is not None:
            detail, result = run_once(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "result": result,
                               "samples": detail["samples"]}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
