"""One benchmark process: set up, then run whole rounds of CLI commands.

Started by run.py from the root of a checkout, with `src` on PYTHONPATH.
It prints READY once set-up is done (run.py times set-up up to that line)
and then a SLOWDOWN line: the machine's speed against the calibration
kernel. Unless --setup-only, it then runs rounds until --seconds have
passed and prints one JSON line with the measured metrics.

With --trace 1 the embedlab layers are wrapped by tracing.Tracer and the
per-layer metrics are reported per round instead of the end-to-end ones.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import workloads
from tracing import Tracer

MIN_ROUNDS = 2

# The speed of this shared machine drifts by +-15 % over tens of seconds, so
# the benchmark times a fixed calibration kernel before and after every
# command and counts the command's time in units of the kernel's time,
# converted back to seconds at the kernel's nominal time. See README,
# "Why the first attempt was noisy".
REF_NOMINAL_S = 0.053


class Reference:
    """Calibration kernel: a cross-attention forward pass written like the
    denoiser's (random weights, no embedlab code) at batch 1, 20 and 64,
    plus a plain interpreter loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shapes = {"w_in": (64, 128), "wq": (128, 64), "wk": (32, 64),
                  "wv": (32, 64), "wo": (64, 128), "w1": (128, 128),
                  "w2": (128, 64)}
        self.w = {k: 0.1 * rng.normal(size=s) for k, s in shapes.items()}
        self.emb = rng.normal(size=(16, 32))
        self.x = {b: rng.normal(size=(b, 64)) for b in (1, 20, 64)}

    def _forward(self, b: int):
        w = self.w
        emb = np.broadcast_to(self.emb, (b, 16, 32))
        h = np.maximum(self.x[b] @ w["w_in"], 0.0)
        q = h @ w["wq"]
        norm = np.sqrt(np.einsum("bld,bld->bl", emb, emb))
        k = np.einsum("bld,da->bla", emb / norm[..., None], w["wk"])
        v = np.einsum("bld,da->bla", emb, w["wv"])
        s = np.einsum("ba,bla->bl", q, k)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        s /= s.sum(axis=-1, keepdims=True)
        h2 = h + np.einsum("bl,bla->ba", s, v) @ w["wo"]
        return np.maximum(h2 @ w["w1"], 0.0) @ w["w2"]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for b, reps in ((1, 150), (20, 25), (64, 8)):
            for _ in range(reps):
                self._forward(b)
        acc = 0
        for j in range(60000):
            acc += j * j % 7
        return time.perf_counter() - t0


def run_command(cli, argv, tracer):
    """One CLI call with its chatter captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        tracer.new_command()
        return tracer.call(f"cli.{argv[0]}", cli.main, argv)


def layer_metrics(tracer, wl, rounds: int) -> dict:
    """Per-layer metrics per round, from the recorded spans."""
    stats, under = tracer.summary()

    def stat(name, i):
        return stats.get(name, [0.0, 0.0, 0])[i] / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    fwd_calls = stats["denoiser.forward_batch"][2]
    inverts = stats["diffusion.ddim_invert"][2]
    lam_steps = wl.lambda_steps_per_round * rounds
    in_opt = under.get(("optimizer.surrogate_loss", "optimizer.optimize"), 0)
    in_fd = under.get(("optimizer.surrogate_loss", "optimizer.fd_gradient"), 0)
    m = {}
    for name in ("text_encoder.encode_batch", "text_encoder.encode_backward",
                 "denoiser.backward_batch", "rng.Rng.normal",
                 "denoiser.forward_batch", "optimizer.fd_gradient",
                 "linalg.svd", "toyworld.oracle_classify", "toyworld.save_pgm",
                 "denoiser.load_checkpoint"):
        m[f"{name}.busy_s"] = (stat(name, 0), "s")
    for name in ("denoiser.loss_and_grads", "denoiser.train",
                 "pipeline.generate_batch", "diffusion.sample",
                 "diffusion.ddim_invert", "edit_ops.run_edit"):
        m[f"{name}.self_s"] = (stat(name, 1), "s")
    m["denoiser.forward_batch.calls"] = (stat("denoiser.forward_batch", 2), "count")
    m["denoiser.forward_batch.rows"] = (tracer.rows / rounds, "count")
    m["denoiser.forward_batch.repeat_emb_share"] = (
        ratio(tracer.repeats, fwd_calls), "ratio")
    m["diffusion.sample.calls"] = (stat("diffusion.sample", 2), "count")
    m["diffusion.ddim_invert.evals_per_step"] = (ratio(
        under.get(("denoiser.forward_batch", "diffusion.ddim_invert"), 0),
        inverts * workloads.T_STEPS), "count/step")
    m["optimizer.surrogate_loss.calls_per_step"] = (ratio(in_opt, lam_steps),
                                                    "count/step")
    # every optimize() call evaluates the initial loss once before step 1
    m["optimizer.line_search.evals_per_step"] = (ratio(
        in_opt - in_fd - stats["optimizer.optimize"][2], lam_steps), "count/step")
    for cmd in ("train", "sample", "mask-sweep", "edit", "invert", "svd-dirs",
                "opt-lambda"):
        m[f"cli.{cmd}.busy_s"] = (stat(f"cli.{cmd}", 0), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import embedlab
    from embedlab import cli
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([embedlab.__file__, src]) != src:
        print(f"embedlab imported from {embedlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.run_dir)
    warmup = wl.setup()
    if run_command(cli, warmup, None) != 0:
        print(f"warm-up command failed: {warmup}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    # the machine's speed right after set-up, for run.py to scale set-up by
    ref = Reference()
    slowdown = statistics.median(ref.seconds() for _ in range(3)) / REF_NOMINAL_S
    print(f"SLOWDOWN {slowdown!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        absent = tracer.install()
        if absent:
            print(f"absent from the program: {' '.join(absent)}")
    attempted = failed = 0
    failures = []
    ratios = []    # per command of a round: its time over the kernel time next to it
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        cmds = wl.round(r)
        ok = []
        ref_before = ref.seconds()
        for i, c in enumerate(cmds):
            attempted += c.ops
            t0 = time.perf_counter()
            try:
                rc = run_command(cli, c.argv, tracer)
            except Exception:  # an uncaught program fault fails the op
                rc = traceback.format_exc()
            dt = time.perf_counter() - t0
            ref_after = ref.seconds()
            if r == 0:
                ratios.append([])
            ratios[i].append(2.0 * dt / (ref_before + ref_after))
            ref_before = ref_after
            if rc == 0:
                ok.append(c)
            else:
                failed += c.ops
                failures.append(f"{' '.join(c.argv)} -> {rc}")
        for c in ok:   # checked between rounds, outside the timed commands
            try:
                failures += c.check(c.out)
            except (OSError, ValueError, KeyError) as e:
                failures.append(f"{' '.join(c.argv)}: unreadable output: {e}")
        r += 1
    # a round made of each command's median time, in seconds at the
    # kernel's nominal speed; the median shrugs off bursts of contention
    round_s = REF_NOMINAL_S * sum(statistics.median(x) for x in ratios)
    ops_per_s = sum(c.ops for c in cmds) / round_s
    failures += wl.finish()
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
                   "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"}}
    else:
        tracer.write(os.path.join(args.run_dir, args.workload, "trace.csv"))
        metrics = layer_metrics(tracer, wl, r)
        print(f"traced: {r} rounds, ops_per_s {ops_per_s:.6g}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
