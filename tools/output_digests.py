"""Print the sha256 of every file a fixed battery of embedlab commands writes.

Usage, from anywhere:

    python tools/output_digests.py > digests.txt

The battery runs on the benchmark's trained checkpoint,
perfbench/data/trained-seed7.ckpt (read only), and on the checkpoint its
own `train` entry writes, so a checkpoint saved and loaded by the same
checkout is covered too. It writes into a temporary directory that is
removed afterwards. Each output prints as one
`sha256  command/path` line, sorted. Run it in two checkouts and diff the
two listings: every line that differs names an output whose bytes changed.
Manifests are included; they hold the checkpoint path relative to the
checkout, or to the temporary directory for the battery's own checkpoint,
so two checkouts on one machine give comparable listings.

The last entries rerun commands into directories that already hold an
earlier run's files, mostly with smaller outputs, so the listing also
covers files rewritten over longer ones. Files that only the earlier run
writes stay as it left them.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CKPT = os.path.join("perfbench", "data", "trained-seed7.ckpt")
# the battery's own train checkpoint; commands that read it run from the
# temporary directory
OWN = os.path.join("train", "model.ckpt")
SWAP = ["--from", "a photo of hbar bright", "--to", "a photo of vbar bright"]


def edit(*flags) -> list:
    return ["edit", "--ckpt", CKPT, "--seeds", "16", *flags]


# (output directory, argv without --out)
BATTERY = [
    ("gen-data", ["gen-data", "--n", "12"]),
    ("sample-ddim", ["sample", "--ckpt", CKPT, "--n", "4"]),
    ("sample-ddpm", ["sample", "--ckpt", CKPT, "--n", "3", "--mode", "ddpm"]),
    # seeds that are negative or cross 2**63 and 2**64, masked to 64 bits
    ("sample-ddpm-neg", ["sample", "--ckpt", CKPT, "--n", "3", "--mode", "ddpm",
                         "--seed", "-2"]),
    ("sample-ddpm-2p63", ["sample", "--ckpt", CKPT, "--n", "3", "--mode",
                          "ddpm", "--seed", str(2**63 - 1)]),
    ("sample-ddim-2p64", ["sample", "--ckpt", CKPT, "--n", "2",
                          "--seed", str(2**64 - 1)]),
    ("mask-sweep", ["mask-sweep", "--ckpt", CKPT, "--seeds", "4"]),
    ("edit-swap", edit("--recipe", "swap", *SWAP)),
    ("edit-soft_swap", edit("--recipe", "soft_swap", "--weight", "0.25", *SWAP)),
    # rows named in descending order: the label keeps the flags' order
    ("edit-soft_swap-rows", edit("--recipe", "soft_swap", "--positions", "6,5",
                                 "--weight", "0.75")),
    ("edit-scale", edit("--recipe", "scale", "--scale-pos", "6",
                        "--scale", "1.5")),
    ("edit-style", edit("--recipe", "style", "--from", "a photo of diag dim",
                        "--to", "a photo of cross bright")),
    ("edit-mask", edit("--recipe", "mask", "--mask-from", "5",
                       "--mask-to", "6")),
    ("edit-mask-zero", edit("--recipe", "mask", "--mask-from", "5",
                            "--mask-to", "6", "--mask-mode", "zero")),
    ("invert", ["invert", "--ckpt", CKPT]),
    ("svd-dirs-right", ["svd-dirs", "--ckpt", CKPT, "--side", "right",
                        "--k", "1"]),
    ("svd-dirs-left", ["svd-dirs", "--ckpt", CKPT, "--side", "left",
                       "--k", "1"]),
    ("opt-lambda", ["opt-lambda", "--ckpt", CKPT, "--steps", "2"]),
    ("train", ["train", "--steps", "30"]),
    ("sample-own", ["sample", "--ckpt", OWN, "--n", "3"]),
    ("train-batch7", ["train", "--steps", "30", "--batch-size", "7",
                      "--seed", "5"]),
    # every check's report line, so a renamed or reworded check shows
    ("verify", ["verify"]),
    # reruns into existing directories
    ("gen-data", ["gen-data", "--n", "5", "--seed", "3"]),
    ("sample-ddim", ["sample", "--ckpt", CKPT, "--n", "2", "--seed", "5"]),
    ("sample-ddpm", ["sample", "--ckpt", CKPT, "--n", "1", "--mode", "ddpm"]),
    ("mask-sweep", ["mask-sweep", "--ckpt", CKPT, "--seeds", "2",
                    "--prompt", "a photo of cross dim"]),
    ("edit-swap", ["edit", "--ckpt", CKPT, "--seeds", "2", "--recipe", "swap",
                   "--from", "a photo of diag dim", "--to", "a photo of cross dim"]),
    ("edit-scale", ["edit", "--ckpt", CKPT, "--seeds", "3", "--recipe",
                    "scale", "--scale-pos", "6", "--scale", "0.5"]),
    ("invert", ["invert", "--ckpt", CKPT, "--class", "vbar", "--style", "0.5",
                "--to", "a photo of hbar dim"]),
    ("svd-dirs-right", ["svd-dirs", "--ckpt", CKPT, "--side", "right",
                        "--k", "0", "--seed", "3"]),
    ("opt-lambda", ["opt-lambda", "--ckpt", CKPT, "--steps", "1"]),
    ("train", ["train", "--steps", "10", "--seed", "3"]),
]


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from embedlab import cli

    tmp = tempfile.mkdtemp(prefix="output-digests-")
    lines = []
    try:
        for tag, argv in BATTERY:
            os.chdir(tmp if OWN in argv else ROOT)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", os.path.join(tmp, tag)])
            if code != 0:
                print(f"{tag}: exit {code}", file=sys.stderr)
                return 1
        for dirpath, _, files in os.walk(tmp):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                lines.append(f"{digest}  {os.path.relpath(path, tmp)}")
    finally:
        shutil.rmtree(tmp)
    print("\n".join(sorted(lines, key=lambda line: line.split("  ")[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
