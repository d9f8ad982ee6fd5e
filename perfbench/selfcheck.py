"""Fast self-check of the benchmark at reduced sizes.

    python3 perfbench/selfcheck.py

Runs every workload with `--size small` (converge at N = 4,6, thermo-table
at resolution 32, oracle at N = 4), untraced and twice traced.  It asserts
that the last line of each run names every metric of BENCHMARK.json with
its unit, that all output checks pass with no failed operation, and that
the traced counts repeat exactly.  It also asserts that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(proc, expected, label):
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"correct {result.get('correct')}, attempted "
                        f"{result.get('attempted')}, failed "
                        f"{result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"expected {expected[name]!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    if problems:
        raise SystemExit(f"{label}:\n  " + "\n  ".join(problems)
                         + "\n" + proc.stdout)
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        check_result(run(ROOT, workload, 0), end_to_end,
                     f"{workload} untraced")
        counts = []
        for attempt in range(2):
            result = check_result(run(ROOT, workload, 1), per_layer,
                                  f"{workload} traced #{attempt + 1}")
            counts.append({name: entry["value"] for name, entry
                           in result["metrics"].items()
                           if entry["unit"] != "s"})
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            raise SystemExit(f"{workload}: traced counts differ: {diff}")
        print(f"{workload}: ok")

    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("benchmark ran without the program: exit "
                             f"{proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
    print("bare directory: refused")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
