"""Time output_digests' command battery in two checkouts, in alternating pairs.

Usage:

    python tools/abtime.py PARENT CHANGE [--pairs 10]

PARENT and CHANGE are checkout roots. Every battery entry that reads the
benchmark's trained checkpoint (or no checkpoint) runs once per pair in
each checkout; the entries that read the battery's own `train` checkpoint
are skipped. Each run is a fresh Python process with
OPENBLAS_NUM_THREADS=1, that checkout's `src` on the path and the checkout
as its working directory, and only its `cli.main` call is timed. Which
checkout runs first alternates from pair to pair.

Per command it prints both medians, the parent's interquartile range and
the number of pairs in which the change ran faster; the last line sums
the medians.
"""

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

from output_digests import BATTERY, OWN

# one timed cli.main call; argv[1] is the output directory, the rest the
# command's arguments
CHILD = """
import contextlib, io, sys, time
from embedlab import cli
argv = sys.argv[2:] + ["--out", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
if code != 0:
    sys.exit(f"exit {code}: {argv}")
print(elapsed)
"""


def time_once(root: str, argv: list, out: str) -> float:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, out, *argv], cwd=root,
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {done.stderr.strip()}")
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    entries, seen = [], set()
    for tag, a in BATTERY:
        if OWN not in a:
            # a tag's second entry is its rerun
            entries.append((tag + " (rerun)" if tag in seen else tag, a))
            seen.add(tag)
    times = np.empty((len(entries), args.pairs, 2))
    with tempfile.TemporaryDirectory(prefix="abtime-") as tmp:
        for p in range(args.pairs):
            order = (0, 1) if p % 2 == 0 else (1, 0)
            for i, (tag, a) in enumerate(entries):
                for side in order:
                    out = os.path.join(tmp, f"{side}-{p}-{i}")
                    times[i, p, side] = time_once(roots[side], a, out)
    med = np.median(times, axis=1)
    q1, q3 = np.percentile(times[:, :, 0], [25, 75], axis=1)
    wins = np.sum(times[:, :, 1] < times[:, :, 0], axis=1)
    width = max(len(tag) for tag, _ in entries)
    print(f"{'command':<{width}}  parent_ms  change_ms  parent_iqr_ms  wins")
    for i, (tag, _) in enumerate(entries):
        print(f"{tag:<{width}}  {med[i, 0] * 1e3:9.1f}  {med[i, 1] * 1e3:9.1f}"
              f"  {(q3[i] - q1[i]) * 1e3:13.1f}  {wins[i]}/{args.pairs}")
    print(f"{'sum of medians':<{width}}  {med[:, 0].sum() * 1e3:9.1f}"
          f"  {med[:, 1].sum() * 1e3:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
