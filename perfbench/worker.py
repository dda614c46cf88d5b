"""One benchmark iteration in a fresh Python process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --workdir DIR --result FILE --started T --spawn-s S [--trace]
        [--size full|small] [--inject-bad-row]

`--started` is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC, shared by all processes on the machine), so
`setup_s` covers interpreter start, the premex import, writing the inputs
and the workload's set-up commands.  The timed commands then run in order,
in-process through the click group, one after the other.  The reference
kernel of calibrate.py runs after set-up and after each timed command,
outside every measured interval.  Each command's seconds are scaled to
reference seconds by the kernel runs on either side of it.  Set-up's
interpreter start and imports are scaled by `--spawn-s`, the parent's
reference interpreter start, and the rest of set-up by the kernel run
after it.  The raw seconds are kept as well.
The iteration's record goes to `--result` as JSON; the parent aggregates
the records.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback

import click

import calibrate
import checks
import workloads
from tracer import Tracer, layer_metrics


def _load_synth(root):
    spec = importlib.util.spec_from_file_location(
        "premex_bench_synth", os.path.join(root, "tests", "synth.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _invoke(main, argv):
    """Run one premex command; returns (exit code, captured output)."""
    buffer = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            main.main(args=list(argv), prog_name="premex", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.exceptions.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except click.exceptions.Abort:
            code = 1
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, buffer.getvalue()


def _snapshot(directory):
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            files[path] = (stat.st_mtime_ns, stat.st_size)
    return files


def _run(commands, main, out_dir, written, problems, tracer=None, kernel_s=None):
    """Run commands in order; returns each one's wall time.

    With `kernel_s`, the reference kernel runs after each command, outside
    its timing, and its seconds are appended to `kernel_s`.
    """
    seconds = []
    for command in commands:
        before = _snapshot(out_dir)
        started = time.perf_counter()
        if tracer is None:
            code, output = _invoke(main, command.argv)
        else:
            with tracer.root(f"cli.{command.name}"):
                code, output = _invoke(main, command.argv)
        seconds.append(time.perf_counter() - started)
        if kernel_s is not None:
            kernel_s.append(calibrate.kernel_seconds())
        for path, stamp in _snapshot(out_dir).items():
            if before.get(path) != stamp:
                written[path] = command.name
        if code != 0:
            problems.append((command.name, f"exit code {code}: {output.strip()[-500:]}"))
    return seconds


def _blame(name, timed_names):
    """Map a problem found on a set-up or check command to a timed command."""
    if name in timed_names:
        return name
    variant = name.rsplit(" ", 1)[-1]
    for timed in timed_names:
        if timed.endswith(" " + variant):
            return timed
    return timed_names[0]


def run_iteration(args):
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    from premex.cli import main

    synth = _load_synth(root)
    raw_startup_s = time.monotonic() - args.started
    os.makedirs(args.workdir, exist_ok=True)
    size = workloads.SIZES[args.size]
    csv_path = os.path.join(args.workdir, "input.csv")
    text = synth.make_csv_text(n=size["rows"], seed=args.seed)
    if args.inject_bad_row:
        lines = text.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[0] = "forty"  # Age is not a number: ingest must exit 3
        lines[1] = ",".join(cells)
        text = "".join(lines)
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    plan = workloads.PLANS[args.workload](args.workdir, csv_path, size)
    for path, content in plan.files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    out_dir = os.path.join(args.workdir, "out")
    os.makedirs(out_dir, exist_ok=True)

    setup_written, problems = {}, []
    _run(plan.setup, main, out_dir, setup_written, problems)
    raw_setup_s = time.monotonic() - args.started
    kernel_s = [calibrate.kernel_seconds()]
    tracer = None
    trace_problems = []
    if args.trace:
        tracer = Tracer()
        trace_problems += tracer.install()

    written = {}
    command_s = _run(plan.timed, main, out_dir, written, problems, tracer, kernel_s)
    raw_wall_s = sum(command_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.active = False
        layers = layer_metrics(tracer, raw_wall_s)
        trace_problems += tracer.counter_errors

    # --- checks, outside the timed part --------------------------------------
    timed_names = [command.name for command in plan.timed]
    problems += checks.check_written_numbers(written)
    _run(plan.check, main, out_dir, {}, problems)
    scores = checks.test_r2(out_dir)
    problems += checks.check_test_r2(scores, size["test_r2_floor"])
    if plan.workload == "explain":
        problems += checks.check_shap_matches_ice(out_dir)
    digests = checks.digests({**setup_written, **written})
    digests = {name: [digest, _blame(command, timed_names)]
               for name, (digest, command) in digests.items()}

    failed = sorted({_blame(name, timed_names) for name, _ in problems})
    return {
        "workload": plan.workload,
        "params": plan.params,
        "traced": bool(args.trace),
        "setup_s": (raw_startup_s * calibrate.SPAWN_REFERENCE_S / args.spawn_s
                    + calibrate.to_reference(raw_setup_s - raw_startup_s, kernel_s[:1])),
        "wall_s": sum(calibrate.to_reference(seconds, kernel_s[i:i + 2])
                      for i, seconds in enumerate(command_s)),
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "raw_startup_s": raw_startup_s,
        "spawn_s": args.spawn_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "test_r2": scores,
        "commands": timed_names,
        "failed_commands": failed,
        "problems": [f"{name}: {problem}" for name, problem in problems],
        "digests": digests,
        "layers": layers,
        "trace_problems": trace_problems,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--spawn-s", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--size", default="full")
    parser.add_argument("--inject-bad-row", action="store_true")
    args = parser.parse_args(argv)
    record = run_iteration(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
