"""Benchmark of the csoslab laboratory: one workload per process.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Set-up is repeated (see SETUP_BEFORE); then rounds run, one
after another in a closed loop, as long as another whole round fits in
`--seconds` (at least one round).  With `--trace 0` the last line is the
JSON result with the end-to-end metrics, with `--trace 1` the per-layer
metrics from spans recorded around each layer's public functions.  See
perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# set-up runs at least SETUP_BEFORE times before the rounds and at least
# SETUP_AFTER times after them, each batch for at least SETUP_SECONDS;
# setup_s is the median.  Spreading the repeats over the run makes the
# median follow the machine's speed over the run, as wall_s does.
SETUP_BEFORE = 2
SETUP_AFTER = 1
SETUP_SECONDS = 1.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mib": "MiB"}


def fresh_import():
    """Import the package in a fresh interpreter, as each CLI invocation
    does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import csoslab.cli"], env=env,
                   check=True)


def run_checks(check, ops):
    """Check messages per operation; a check that raises (for example on a
    malformed report) fails every operation that produced output."""
    try:
        return check(ops)
    except Exception as exc:
        return {op["name"]: [f"{type(exc).__name__}: {exc}"] for op in ops
                if op["error"] is None}


def run_workload(args):
    # a root cache named by the caller's environment would serve roots the
    # converge workload is meant to solve
    os.environ.pop("CSOSLAB_CACHE_DIR", None)
    from workloads import WORKLOADS, output_bytes
    from spans import LAYER_METRICS, Tracer

    wl = WORKLOADS[args.workload](args.seed, args.size == "small")
    work_root = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_root)
    try:
        setups = []

        def set_up(repeats):
            batch = []
            while len(batch) < repeats or sum(batch) < SETUP_SECONDS:
                work = os.path.join(work_root, f"setup{len(setups)}")
                os.makedirs(work)
                start = time.perf_counter()
                fresh_import()
                wl.setup(work)
                batch.append(time.perf_counter() - start)
                setups.append(batch[-1])
            return work

        work = set_up(SETUP_BEFORE)

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        rounds = []
        began = time.perf_counter()
        try:
            # whole rounds only: stop before a further round would end
            # past --seconds (one round runs even if it alone is longer)
            while not rounds or (
                    time.perf_counter() - began
                    + statistics.median(r["wall"] for r in rounds)
                    <= args.seconds):
                first = tracer.mark() if tracer else 0
                w0, c0 = time.perf_counter(), time.process_time()
                ops = wl.run_round(work, len(rounds))
                wall = time.perf_counter() - w0
                cpu = time.process_time() - c0
                layers = (tracer.layer_metrics(first, tracer.mark(), wall,
                                               output_bytes(ops))
                          if tracer else None)
                rounds.append({"wall": wall, "cpu": cpu, "ops": ops,
                               "layers": layers})
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = 0
        correct = True
        for index, rnd in enumerate(rounds):
            ops = rnd["ops"]
            attempted += len(ops)
            errors = [op for op in ops if op["error"] is not None]
            for op in errors:
                print(f"round {index} {op['name']}: {op['error']}")
            fails = run_checks(wl.check_round, ops)
            if index == 0 and not errors:
                for name, msgs in run_checks(wl.check_once, ops).items():
                    fails[name] = fails.get(name, []) + msgs
            bad = {name for name, msgs in fails.items() if msgs}
            for name in sorted(bad):
                print(f"round {index} {name}: check failed: "
                      + "; ".join(fails[name]))
            correct = correct and not bad
            failed += len(errors) + len(bad)
            print(f"round {index}: wall {rnd['wall']:.3f} s, "
                  f"cpu {rnd['cpu']:.3f} s, {len(ops)} operations")

        if tracer:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"))
            metrics = {}
            for name, unit in LAYER_METRICS.items():
                value = statistics.median(r["layers"][name] for r in rounds)
                if unit != "s" and value == int(value):
                    value = int(value)
                metrics[name] = {"value": value, "unit": unit}
        else:
            set_up(SETUP_AFTER)
            values = {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(r["wall"] for r in rounds),
                      "cpu_s": statistics.median(r["cpu"] for r in rounds),
                      "peak_rss_mib": peak_rss_mib}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        return {"correct": correct, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}, "
              f"correct {results[name]['correct']}")
        for metric, entry in results[name]["metrics"].items():
            print(f"  {metric:36s} {entry['value']:>16.6g} {entry['unit']}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("converge", "thermo-table", "oracle", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced sizes for the self-check")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "csoslab")):
        sys.stderr.write(f"no csoslab package under {SRC}; run from the "
                         "root of a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
