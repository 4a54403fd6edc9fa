#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--reduced] [--corrupt <kind>]

Workloads: mip-quest, mip-enron, snmf-quest, svc-mixed (see
perfbench/README.md). The first call configures and builds the `perfbench`
binary (the aspe library from src/ plus the benchmark) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. The binary runs in a temporary directory under the same
build root, which is removed afterwards.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json (peak_rss_mb is measured here, from the benchmark process's
resource usage); --trace 1 reports the per-layer metrics. BENCHMARK.json is
the only list of metric names and units: this script attaches the units,
prints 0 for a per-layer metric the workload does not exercise, and fails
the run when the binary reports a name the file does not list or leaves out
an end-to-end metric. The exit code is 0 only when every correctness check
passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_ROOT = BENCH_DIR.parent
WORKLOADS = ("mip-quest", "mip-enron", "snmf-quest", "svc-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build_binary():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (SOURCE_ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {SOURCE_ROOT}")
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def run_binary(binary, argv):
    """Run the binary in a temporary directory; returns (exit code, stdout
    lines, peak resident set in MiB)."""
    work = build_root() / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with open(work / "stdout.txt", "w+") as out:
            proc = subprocess.Popen([str(binary)] + argv, cwd=work, stdout=out)

            def stop(signum, _frame):
                # Killed from outside: take the benchmark process along.
                proc.kill()
                os.waitpid(proc.pid, 0)
                sys.exit(128 + signum)

            for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
                signal.signal(signum, stop)
            timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
                    signal.signal(signum, signal.SIG_DFL)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            lines = out.read().splitlines()
        return proc.returncode, lines, usage.ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics(trace):
    """The metrics BENCHMARK.json lists for this mode, in its order, as
    (name, unit) pairs. The file is the only list of metric names and
    units."""
    spec_path = SOURCE_ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs (self-tests only)")
    parser.add_argument("--corrupt", default="",
                        help="inject one output error (self-tests only)")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    binary = build_binary()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.reduced:
        argv.append("--reduced")
    if args.corrupt:
        argv += ["--corrupt", args.corrupt]
    code, lines, peak_rss_mb = run_binary(binary, argv)

    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        fail(f"benchmark binary exited with code {code} and printed no "
             "result", code or 1)

    measured = result["metrics"]
    if not args.trace:
        measured["peak_rss_mb"] = {"value": peak_rss_mb, "samples": 1}
    for line in lines[:-1]:
        print(line)
    correct = result["correct"]
    names = {name for name, _ in declared}
    extra = sorted(set(measured) - names)
    # A traced run reports the layers its workload exercises; the others
    # read 0. A measured run must report every end-to-end metric.
    missing = [] if args.trace else sorted(names - set(measured))
    if extra or missing:
        print(f"CHECK FAILED: metrics differ from BENCHMARK.json: "
              f"missing {missing}, extra {extra}")
        correct = False
    metrics = {}
    for name, unit in declared:
        m = measured.get(name, {"value": 0.0, "samples": 0})
        metrics[name] = {"value": m["value"], "unit": unit}
        samples = f" (n={m['samples']})" if m["samples"] else ""
        print(f"metric {name:<36} {m['value']:.6g} {unit}{samples}")
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if code == 0 and correct else 1)


if __name__ == "__main__":
    main()
