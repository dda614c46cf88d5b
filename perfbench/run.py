"""Layered benchmark of the premex pipeline.

    python3 perfbench/run.py --workload {train-cv,explain} --seed N
        --seconds S --trace {0,1} [--size full|small]

Run from the root of a source checkout.  A run repeats the workload in
fresh Python processes (one iteration each, one after the other: a closed
loop with one client) until starting another iteration would pass
`--seconds`, and reports medians over the iterations.  It runs at least
3 iterations (2 pairs with `--trace 1`), or 1 at `--size small`.
`wall_s` and `setup_s` are in reference seconds (see calibrate.py); the
raw seconds are in the samples.

* `--trace 0` prints the end-to-end metrics of BENCHMARK.json;
* `--trace 1` alternates untraced and traced iterations and prints the
  per-layer metrics of the traced ones, plus `trace.overhead`, the traced
  wall time over the untraced one, minus 1.  A traced iteration is
  incorrect if the time outside every layer span (`cli.self_s`) exceeds
  max(`trace.overhead`, 1%) of its traced wall time plus 4 ms per command,
  or if a counted function was not found or its counter failed.

Every iteration's outputs are checked after its timed part (see
checks.py); a failed command or check counts in `failed` and never stops
the run.  The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds
the environment record and the raw per-iteration samples.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

# A run never takes longer than this, whatever --seconds says.
HARD_LIMIT_S = 170.0

# Click's parsing and the --config read cost about 1.5 ms per command on the
# baseline machine; cli.self_s may hold that much on top of its share.
CLI_PER_COMMAND_S = 0.004


def _min_iterations(args):
    if args.size == "small":
        return 1
    return 2 if args.trace else 3


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _source_digest():
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "premex")
    for name in sorted(os.listdir(source)):
        if name.endswith(".py"):
            with open(os.path.join(source, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _commit():
    """The checked-out commit, if the checkout is a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _iteration(args, index, traced, workdir, deadline):
    """Run one worker process; returns its record (None if it died)."""
    iteration_dir = os.path.join(workdir, f"iter{index}")
    result_path = os.path.join(workdir, f"iter{index}.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", iteration_dir, "--result", result_path, "--size", args.size]
    if traced:
        command.append("--trace")
    if args.inject_bad_row:
        command.append("--inject-bad-row")
    command += ["--spawn-s", repr(calibrate.spawn_seconds())]
    started = time.monotonic()
    command += ["--started", repr(started)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - started), check=False)
    except subprocess.TimeoutExpired:  # run() kills the worker and waits for it
        print(f"iteration {index}: timed out", file=sys.stderr)
        return None
    record = None
    if done.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            record = json.load(handle)
    else:
        print(f"iteration {index}: worker exited {done.returncode}\n{done.stderr[-3000:]}",
              file=sys.stderr)
    shutil.rmtree(iteration_dir, ignore_errors=True)
    return record


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def collect(args):
    """Iterate until the time is up; returns [(traced, record or None)]."""
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    records, durations, attempts = [], [], 0
    minimum = _min_iterations(args)
    try:
        while True:
            elapsed = time.monotonic() - started
            if attempts >= minimum and elapsed + _median(durations) > args.seconds:
                break
            if elapsed > HARD_LIMIT_S / 2:
                break
            before = time.monotonic()
            # alternate which of a pair runs first, so neither always runs cold
            plan = ([False, True] if attempts % 2 == 0 else [True, False]) if args.trace else [False]
            for traced in plan:
                records.append((traced, _iteration(args, len(records), traced, workdir, deadline)))
            durations.append(time.monotonic() - before)
            attempts += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return records


def aggregate(args, records, spec):
    attempted = failed = 0
    problems = []
    reference = None
    for traced, record in records:
        if record is None:
            continue
        attempted += len(record["commands"])
        bad = set(record["failed_commands"])
        if reference is None:
            reference = record["digests"]
        else:
            for name in set(reference) | set(record["digests"]):
                mine, first = record["digests"].get(name), reference.get(name)
                if mine is None or first is None or mine[0] != first[0]:
                    bad.add((mine or first)[1])
                    problems.append(f"{name} differs from the first iteration")
        failed += len(bad)
        problems += record["problems"]
    lost = sum(1 for _, record in records if record is None)
    if lost:
        # a dead worker fails every command of its iteration
        planned = len(workloads.PLANS[args.workload](".", "input.csv",
                                                     workloads.SIZES[args.size]).timed)
        attempted += lost * planned
        failed += lost * planned
        problems.append(f"{lost} iteration(s) did not finish")

    untraced = [r for traced, r in records if r is not None and not traced]
    traced_runs = [r for traced, r in records if r is not None and traced]
    metrics = {}
    consistent = True
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, unit in units.items():
            if name == "trace.overhead":
                continue
            metrics[name] = {"value": _median([r["layers"].get(name) for r in traced_runs
                                               if r["layers"]]), "unit": unit}
        base = _median([r["wall_s"] for r in untraced])
        traced_wall = _median([r["wall_s"] for r in traced_runs])
        overhead = traced_wall / base - 1.0 if base and traced_wall else None
        metrics["trace.overhead"] = {"value": overhead, "unit": units["trace.overhead"]}
        for record in traced_runs:
            # time outside every layer span: click parsing, orchestration and
            # anything a layer does through a function the tracer missed
            layers = record["layers"]
            allowed = (max(overhead or 0.0, 0.01) * layers["trace.wall_s"]
                       + CLI_PER_COMMAND_S * layers["cli.commands"])
            if layers["cli.self_s"] > allowed:
                problems.append(f"cli.self_s {layers['cli.self_s']:.4f} s exceeds {allowed:.4f} s "
                                f"of traced wall {layers['trace.wall_s']:.4f} s")
                consistent = False
            if record["trace_problems"]:
                problems += record["trace_problems"]
                consistent = False
    else:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name.startswith("test_r2."):
                value = _median([r["test_r2"].get(name.split(".", 1)[1]) for r in untraced])
            else:
                value = _median([r[name] for r in untraced])
            metrics[name] = {"value": value, "unit": entry["unit"]}
    complete = all(m["value"] is not None for m in metrics.values())
    if not complete:
        problems.append("some metrics could not be measured")
    result = {
        "correct": failed == 0 and complete and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    samples = {
        "iterations": len(untraced),
        "traced_iterations": len(traced_runs),
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "raw_wall_s": [r["raw_wall_s"] for r in untraced],
        "raw_setup_s": [r["raw_setup_s"] for r in untraced],
        "raw_startup_s": [r["raw_startup_s"] for r in untraced],
        "spawn_s": [r["spawn_s"] for r in untraced],
        "kernel_s": [r["kernel_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced_runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    params = next((r["params"] for _, r in records if r), None)
    return result, samples, params, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, default=7, help="data seed (default 7)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'small' only keeps the self-test quick")
    parser.add_argument("--inject-bad-row", action="store_true",
                        help="self-test: make one CSV row's Age non-numeric")
    args = parser.parse_args(argv)

    required = [os.path.join(ROOT, "src", "premex", "cli.py"),
                os.path.join(ROOT, "tests", "synth.py"),
                os.path.join(ROOT, "BENCHMARK.json")]
    missing = [path for path in required if not os.path.isfile(path)]
    if missing:
        print(f"error: not a premex checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = _benchmark_spec()
    records = collect(args)
    result, samples, params, problems = aggregate(args, records, spec)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": params,
        "env": environment(),
        "samples": samples,
        "result": result,
    }
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:9s} {name:36s} {shown:>14s} {metric['unit']}")
    print(json.dumps({key: value for key, value in record.items() if key != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
