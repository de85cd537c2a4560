"""The three benchmark workloads, as rounds of embedlab CLI commands.

A workload turns the benchmark's seed into the prompts, seed ranges and
render seeds it passes to the program. One round is a fixed list of
commands with a fixed number of ops; a run repeats whole rounds. Each
command comes with the checks that its output must pass.
"""

import hashlib
import os
import random
from dataclasses import dataclass, field

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "data", "trained-seed7.ckpt")
# sha256 of the checkpoint made by `embedlab train --seed 7` at its defaults
CHECKPOINT_SHA256 = "0c756a48c4192b8f2de2dce6c8c08dfa4e6e5f922dc472e912d5dfb4d5b4c470"
T_STEPS = 100
PROMPT_LEN = 16   # rows of an embedding: the encoder's max_len
STYLE_POS = 6     # 1-based row of the style word in "a photo of <class> <style>"
PROMPTS = tuple(f"a photo of {c} {s}" for c in checks.CLASSES
                for s in checks.STYLE_WORDS)

TRAIN_STEPS = 100
# two shorter sweeps rather than one of 20 seeds: the calibration kernel
# timed around each command tracks the machine's speed better
SWEEPS = 2
SWEEP_SEEDS = 10
SAMPLES_PER_PROMPT = 8
EDIT_SEEDS = 16
SVD_POINTS = 7
LAMBDA_STEPS = 2


@dataclass
class Command:
    """One CLI command of a round, the ops it delivers and its output check."""
    argv: list
    ops: int
    check: object   # callable(out_dir) -> list of failures
    out: str = field(init=False, default="")

    def __post_init__(self):
        self.out = self.argv[self.argv.index("--out") + 1]


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    name = ""
    lambda_steps_per_round = 0

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed
        self.run_dir = run_dir

    def out(self, tag: str) -> str:
        return os.path.join(self.run_dir, self.name, tag)

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def setup(self) -> list:
        """Work done before timing; returns the warm-up command."""
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks over the whole run; returns failures."""
        return []


class Train(Workload):
    """`embedlab train` from its default init, batch 64, T=100.

    Every round trains with the same seed, so every round must write the
    same checkpoint bytes.
    """
    name = "train"

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.train_seed = self.rng(0).randrange(1 << 31)
        self.digests = set()

    def setup(self):
        return ["train", "--out", self.out("warmup"), "--steps", "2",
                "--seed", str(self.train_seed)]

    def round(self, r):
        out = self.out("train")

        def check(out_dir):
            self.digests.add(sha256_file(os.path.join(out_dir, "model.ckpt")))
            return checks.check_train(out_dir, TRAIN_STEPS)
        return [Command(["train", "--out", out, "--seed", str(self.train_seed),
                         "--steps", str(TRAIN_STEPS)], TRAIN_STEPS, check)]

    def finish(self):
        if len(self.digests) != 1:
            return [f"{len(self.digests)} different checkpoints from one seed"]
        return []


class _TrainedModel(Workload):
    """Workloads that load the trained checkpoint kept with the benchmark."""

    def setup(self):
        if sha256_file(CHECKPOINT) != CHECKPOINT_SHA256:
            raise SystemExit(f"{CHECKPOINT} is not the trained checkpoint")
        fails = checks.check_checkpoint(CHECKPOINT)
        if fails:
            raise SystemExit("; ".join(fails))
        return ["sample", "--ckpt", CHECKPOINT, "--out", self.out("warmup"),
                "--n", "1"]


class Generate(_TrainedModel):
    """mask-sweep over two prompts plus sample over the eight training prompts."""
    name = "generate"

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.hits = 0
        self.images = 0

    def round(self, r):
        rng = self.rng(r)
        families = 1 + PROMPT_LEN + 2 * (PROMPT_LEN - 1)
        cmds = [Command(["mask-sweep", "--ckpt", CHECKPOINT,
                         "--out", self.out(f"mask-sweep{i}"), "--prompt", prompt,
                         "--seeds", str(SWEEP_SEEDS)],
                        families * SWEEP_SEEDS,
                        lambda d: checks.check_mask_sweep(d, SWEEP_SEEDS,
                                                          PROMPT_LEN))
                for i, prompt in enumerate(rng.sample(PROMPTS, SWEEPS))]
        first = rng.randrange(10 ** 6)
        for i, p in enumerate(PROMPTS):
            cmds.append(Command(
                ["sample", "--ckpt", CHECKPOINT, "--out", self.out(f"sample{i}"),
                 "--prompt", p, "--seed", str(first),
                 "--n", str(SAMPLES_PER_PROMPT)],
                SAMPLES_PER_PROMPT, self._sample_check(p, first)))
        return cmds

    def _sample_check(self, prompt, first):
        def check(out_dir):
            fails, hits = checks.check_sample(out_dir, prompt, first,
                                              SAMPLES_PER_PROMPT)
            self.hits += hits
            self.images += SAMPLES_PER_PROMPT
            return fails
        return check

    def finish(self):
        return checks.check_prompt_accuracy(self.hits, self.images)


class Edit(_TrainedModel):
    """Every edit recipe over paired seeds, plus invert, svd-dirs, opt-lambda."""
    name = "edit"
    lambda_steps_per_round = LAMBDA_STEPS

    def round(self, r):
        rng = self.rng(r)
        style = rng.choice(checks.STYLE_WORDS)

        def prompt():
            return (f"a photo of {rng.choice(checks.CLASSES)} "
                    f"{rng.choice(checks.STYLE_WORDS)}")

        def pair():
            a, b = rng.sample(checks.CLASSES, 2)
            sw = rng.choice(checks.STYLE_WORDS)
            return f"a photo of {a} {sw}", f"a photo of {b} {sw}"

        def edit(tag, extra, check=None):
            out = self.out(tag)
            argv = ["edit", "--ckpt", CHECKPOINT, "--out", out,
                    "--seeds", str(EDIT_SEEDS)] + extra

            def checked(d):
                fails = checks.check_edit_report(d, EDIT_SEEDS)
                return fails + (check(d) if check else [])
            return Command(argv, EDIT_SEEDS, checked)

        soft_from, soft_to = pair()
        style_from, style_to = prompt(), prompt()
        mask_lo = rng.randrange(1, PROMPT_LEN + 1)
        mask_hi = rng.randrange(mask_lo, PROMPT_LEN + 1)
        if (mask_lo, mask_hi) == (1, PROMPT_LEN):   # keep one row visible
            mask_hi -= 1
        inv_class = rng.choice(checks.CLASSES)
        inv_target = rng.choice([c for c in checks.CLASSES if c != inv_class])
        lam_from, lam_to = pair()
        return [
            edit("swap", ["--recipe", "swap",
                          "--from", f"a photo of hbar {style}",
                          "--to", f"a photo of vbar {style}"],
                 lambda d: checks.check_swap(d, EDIT_SEEDS, "vbar")),
            edit("soft_swap", ["--recipe", "soft_swap", "--from", soft_from,
                               "--to", soft_to,
                               "--weight", str(rng.choice([0.25, 0.5, 0.75]))]),
            edit("scale1", ["--recipe", "scale", "--from", prompt(),
                            "--scale-pos", str(STYLE_POS), "--scale", "1.0"],
                 lambda d: checks.check_scale_identity(d, EDIT_SEEDS)),
            edit("scale", ["--recipe", "scale", "--from", prompt(),
                           "--scale-pos", str(STYLE_POS),
                           "--scale", str(rng.choice([0.5, 1.5, 2.0]))]),
            edit("style", ["--recipe", "style", "--from", style_from,
                           "--to", style_to]),
            edit("mask", ["--recipe", "mask", "--from", prompt(),
                          "--mask-from", str(mask_lo), "--mask-to", str(mask_hi)]),
            Command(["invert", "--ckpt", CHECKPOINT, "--out", self.out("invert"),
                     "--class", inv_class, "--style", str(rng.choice([0.4, 1.0])),
                     "--seed", str(rng.randrange(10 ** 6)),
                     "--to", f"a photo of {inv_target} {style}"],
                    1, checks.check_invert),
            Command(["svd-dirs", "--ckpt", CHECKPOINT, "--out", self.out("svd-dirs"),
                     "--prompt", prompt(), "--side", rng.choice(["right", "left"]),
                     "--k", str(rng.randrange(3)),
                     "--seed", str(rng.randrange(10 ** 6))],
                    SVD_POINTS, lambda d: checks.check_svd_sweep(d, SVD_POINTS)),
            Command(["opt-lambda", "--ckpt", CHECKPOINT,
                     "--out", self.out("opt-lambda"), "--from", lam_from,
                     "--to", lam_to, "--steps", str(LAMBDA_STEPS),
                     "--seed", str(rng.randrange(10 ** 6))],
                    1, lambda d: checks.check_trajectory(d, LAMBDA_STEPS)),
        ]


WORKLOADS = {w.name: w for w in (Train, Generate, Edit)}
