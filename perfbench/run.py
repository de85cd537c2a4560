"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N ...

Run it from the root of an embedlab checkout. It measures set-up time by
starting worker.py several times and timing each start until the worker
reports READY (scaled by the slowdown the worker reports next), then runs
one worker for the timed phase, and prints the
end-to-end metrics (or, with --trace 1, the per-layer ones) as the last
line of its output: one JSON object. `--workload all` runs every workload
in turn. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train", "generate", "edit")
SETUP_SAMPLES = 9      # set-up-only starts, besides the measured run's own
DEADLINE_S = 170.0     # every process started is killed by then
# One BLAS thread: at these matrix sizes two threads ran slower on every
# workload (see README)
BLAS_THREADS = "1"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("EMBEDLAB_OUT", None)   # it would redirect every command's output
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(argv, env, root, deadline):
    """Run one worker; returns (seconds until READY, lines after READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line.rstrip("\n"))
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if rc != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {rc}")
    return ready, lines


def run_workload(args, root, deadline) -> dict:
    env = child_env(root)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-dir", os.path.join(HERE, "runs")]
    setups = []   # each start's set-up time at the reference machine speed

    def start(extra):
        ready, lines = start_worker(argv + extra, env, root, deadline)
        setups.append(ready / float(lines[0].split()[1]))  # SLOWDOWN line
        return lines[1:]

    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            start(["--setup-only"])
    lines = start([])
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    return result


def describe(name, result) -> str:
    parts = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    return (f"{name}: " + ", ".join(parts) + f"; ops attempted {result['attempted']},"
            f" failed {result['failed']}, outputs correct {result['correct']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "embedlab", "__init__.py")):
        print("run from the root of an embedlab checkout (no src/embedlab here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        # each workload gets its own time budget
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args),
                                                               "workload": name}),
                                         root, deadline)
        except (RuntimeError, ValueError, IndexError) as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        print(describe(name, results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
