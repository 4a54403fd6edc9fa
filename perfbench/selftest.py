#!/usr/bin/env python3
"""Self-tests of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

1. A reduced-size run of every workload, measured (--trace 0) and traced
   (--trace 1), passes its correctness checks and prints every metric
   BENCHMARK.json names, with its unit.
2. A corrupted output fails the correctness checks: one flipped bit of a
   recovered MIP query, one flipped bit of a recovered SNMF trapdoor (traced
   run), and one altered byte of an svc response.
3. perfbench/predictions.json names exactly the per-layer metrics of
   BENCHMARK.json, once each.

Exits 0 when every test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
WORKLOADS = ("mip-quest", "mip-enron", "snmf-quest", "svc-mixed")
CORRUPTIONS = (
    ("mip-quest", 0, "mip-query-bit"),
    ("snmf-quest", 1, "snmf-trapdoor-bit"),
    ("svc-mixed", 0, "svc-response-byte"),
)


def run(workload, trace, corrupt=""):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--reduced"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    predictions = json.loads(
        (ROOT / "perfbench" / "predictions.json").read_text())["predictions"]
    predicted = [p["metric"] for p in predictions]
    expect(sorted(predicted) == sorted(m["name"] for m in spec["per_layer"]),
           "predictions.json names each per-layer metric once")

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            what = f"{workload} --trace {trace}"
            if result is None:
                expect(False, f"{what}: no result line\n{proc.stderr}")
                continue
            expect(proc.returncode == 0 and result["correct"],
                   f"{what}: correct, exit 0")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{what}: attempted >= 1, none failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{what}: prints every {key} metric with "
                                f"its unit")
            named = all(f"metric {n} " in proc.stdout for n in want)
            expect(named, f"{what}: human-readable line per metric")

    for workload, trace, corrupt in CORRUPTIONS:
        proc, result = run(workload, trace, corrupt)
        expect(proc.returncode != 0 and result is not None and
               not result["correct"] and "CHECK FAILED" in proc.stdout,
               f"{workload} --corrupt {corrupt}: correctness check fails")

    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
