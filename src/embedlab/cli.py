"""Command-line experiment runner.

Subcommands: gen-data, train, sample, edit, mask-sweep, svd-dirs,
opt-lambda, invert, verify. Each is configured by its flags alone. Every
run writes a `manifest.txt` with the resolved configuration and its hash,
so outputs are attributable and reruns are byte-comparable. The commands
below write every report file, each CSV through `toyworld.write_csv`.

Exit codes: 0 ok, 1 usage error, 2 configuration error, 3 numeric or
training failure, 4 verification failure.

Mask positions on the command line are 1-based (M_1 is the first row of
the embedding); internally positions are 0-based.
"""

import argparse
import functools
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import denoiser as dn
from . import text_encoder as te
from . import toyworld as tw
from .diffusion import make_schedule
from .edit_ops import (diff_positions, mix_scale, mix_style, mix_swap,
                       run_edit, soft_swap, zero_rows)
from .optimizer import OptConfig, make_context, optimize
from .pipeline import ModelBundle, seed_noise
from .rng import Rng
from .semantics import direction_sweep
from .toyworld import (oracle_classify, oracle_style, save_pgm, write_csv,
                       write_in_place)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise UsageError(message)


def config_hash(cfg: dict) -> str:
    """Hash of the semantic configuration; output location excluded."""
    text = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k != "out")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def prepare_out_dir(cfg: dict, command: str) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    lines = [f"command={command}", f"version=v{__version__}",
             "python={}.{}.{}".format(*sys.version_info[:3]),
             f"numpy={np.__version__}",
             f"config_hash={config_hash(cfg)}"]
    lines += [f"{k}={cfg[k]}" for k in sorted(cfg) if k != "out"]
    write_in_place(os.path.join(out, "manifest.txt"),
                   ["\n".join(lines) + "\n"])
    return out


def _require_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise ConfigError(f"--{key} must be at least 1, got {cfg[key]}")


def _require_float(cfg: dict, key: str, ok, want: str) -> None:
    """--key must pass ok; a NaN fails every comparison, so ok rejects it."""
    if not ok(cfg[key]):
        raise ConfigError(f"--{key} must be {want}, got {cfg[key]}")


def _load_bundle(path) -> ModelBundle:
    try:
        return ModelBundle.load(path)
    except (OSError, ValueError, KeyError) as e:
        raise ConfigError(f"cannot load checkpoint {path!r}: {e}") from e


def _parse_positions(text: str, length: int):
    """1-based comma-separated CLI positions, each at most length, to 0-based
    tuples."""
    try:
        pos = tuple(int(p) for p in text.split(",") if p)
    except ValueError as e:
        raise ConfigError(f"bad --positions list {text!r}") from e
    if any(p < 1 for p in pos):
        raise ConfigError("--positions are 1-based; the smallest is 1")
    if any(p > length for p in pos):
        raise ConfigError(f"--positions {text!r} past the embedding's "
                          f"{length} rows")
    if not pos or len(set(pos)) < len(pos):
        raise ConfigError(f"--positions {text!r} names no row or repeats one")
    return tuple(p - 1 for p in pos)


def _hide_rows(length: int, lo: int, hi: int) -> np.ndarray:
    """Attention-allowed rows of a length-row embedding: all but lo..hi,
    inclusive and 0-based."""
    allowed = np.ones(length, dtype=bool)
    allowed[lo:hi + 1] = False
    return allowed


# ------------------------------------------------------------- commands

def cmd_gen_data(cfg: dict) -> int:
    _require_positive(cfg, "n")
    out = prepare_out_dir(cfg, "gen-data")
    world = tw.default_world()
    rng = Rng(cfg["seed"]).split(0)
    samples = []
    for i in range(cfg["n"]):
        k = rng.randint(len(world.classes))
        style = tw.draw_style(rng.uniform())
        samples.append(tw.render(world, k, style, rng))
    write_csv(os.path.join(out, "dataset.csv"),
              ["class", "style"] + [f"x0_{i}" for i in range(tw.IMAGE_DIM)],
              [(s.class_index, s.style_value, *s.x0) for s in samples])
    for i, s in enumerate(samples[:8]):
        save_pgm(os.path.join(out, f"sample_{i}.pgm"), s.x0)
    print(f"wrote {cfg['n']} samples to {out}")
    return EXIT_OK


def cmd_train(cfg: dict) -> int:
    _require_positive(cfg, "steps", "batch-size")
    _require_float(cfg, "lr", lambda v: 0.0 < v < math.inf,
                   "finite and positive")
    try:
        sched = make_schedule(cfg["T"], cfg["beta-start"], cfg["beta-end"])
    except ValueError as e:
        raise ConfigError(f"--T, --beta-start and --beta-end: {e}") from None
    out = prepare_out_dir(cfg, "train")
    world = tw.default_world()
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig()
    den_cfg = dn.DenoiserConfig()
    tcfg = dn.TrainConfig(steps=cfg["steps"], batch_size=cfg["batch-size"],
                          lr=cfg["lr"], seed=cfg["seed"])
    last_step, last_time = 0, time.perf_counter()

    def progress(step, loss, lr, grad_norm):
        nonlocal last_step, last_time
        now = time.perf_counter()
        rate = (step - last_step) / max(now - last_time, 1e-9)
        last_step, last_time = step, now
        print(f"step {step}/{tcfg.steps} loss {loss:.4f} lr {lr:.3g} "
              f"grad_norm {grad_norm:.3e} steps/s {rate:.1f}", flush=True)
    enc_params, den_params, log = dn.train(world, vocab, sched, enc_cfg,
                                           den_cfg, tcfg, on_log=progress)
    ckpt = os.path.join(out, "model.ckpt")
    ModelBundle(world, vocab, enc_cfg, den_cfg, sched, enc_params,
                den_params).save(ckpt)
    write_csv(os.path.join(out, "loss.csv"), ["step", "loss"], log)
    print(f"final loss {log[-1][1]:.4f}; checkpoint at {ckpt}")
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    _require_positive(cfg, "n")
    if cfg["mode"] not in ("ddim", "ddpm"):
        raise ConfigError(f"--mode must be ddim or ddpm, got {cfg['mode']!r}")
    bundle = _load_bundle(cfg["ckpt"])
    emb = bundle.embed(cfg["prompt"])
    out = prepare_out_dir(cfg, "sample")
    seeds = range(cfg["seed"], cfg["seed"] + cfg["n"])
    rng = Rng(seeds).split(1) if cfg["mode"] == "ddpm" else None
    imgs = bundle.generate(emb, seed_noise(seeds), mode=cfg["mode"], rng=rng)
    k, score = oracle_classify(bundle.world, imgs)
    style = oracle_style(bundle.world, imgs, k)
    write_csv(os.path.join(out, "metrics.csv"),
              ["seed", "class", "score", "style"],
              zip(seeds, k.tolist(), score.tolist(), style.tolist()))
    for seed, img in zip(seeds, imgs):
        save_pgm(os.path.join(out, f"gen_{seed}.pgm"), img)
    print(f"generated {cfg['n']} images for {cfg['prompt']!r} in {out}")
    return EXIT_OK


def _build_recipe(cfg: dict, bundle: ModelBundle):
    """The edit that the recipe flags name, as (label, edit).

    The label names rows 1-based, as the flags do. edit maps the (source,
    target) embeddings to (edited embedding, AttnMask or None).
    """
    kind = cfg["recipe"]
    length = bundle.enc_cfg.max_len
    if kind in ("swap", "soft_swap"):
        if cfg["positions"]:
            pos = _parse_positions(cfg["positions"], length)
        else:
            pos = tuple(sorted(diff_positions(bundle.tokens(cfg["from"]),
                                              bundle.tokens(cfg["to"]))))
            if not pos:
                raise ConfigError(f"--from and --to have the same tokens "
                                  f"({cfg['from']!r}): no position to swap")
        rows = ",".join(str(p + 1) for p in pos)
        if kind == "swap":
            return (f"swap[{rows}]",
                    lambda e_s, e_t: (mix_swap(e_s, e_t, pos), None))
        _require_float(cfg, "weight", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        w = cfg["weight"]
        return (f"soft_swap[{rows}:w={w}]",
                lambda e_s, e_t: (soft_swap(e_s, e_t, pos, w), None))
    if kind == "scale":
        pos, c = cfg["scale-pos"], cfg["scale"]
        if pos < 1:
            raise ConfigError("--scale-pos is 1-based; the smallest is 1")
        if pos > length:
            raise ConfigError(f"--scale-pos {pos} past the embedding's "
                              f"{length} rows")
        _require_float(cfg, "scale", math.isfinite, "finite")
        return (f"scale[{pos}x{c}]",
                lambda e_s, e_t: (mix_scale(e_s, pos - 1, c), None))
    if kind == "style":
        cut = bundle.tokens(cfg["from"]).semantic_len
        return "style", lambda e_s, e_t: (mix_style(e_s, e_t, cut), None)
    if kind == "mask":
        i, j, mode = cfg["mask-from"], cfg["mask-to"], cfg["mask-mode"]
        if i < 1 or j < i:
            raise ConfigError("--mask-from and --mask-to are 1-based and "
                              "need from <= to")
        if j > length:
            raise ConfigError(f"--mask-to {j} past the embedding's "
                              f"{length} rows")
        label = f"mask[{i}-{j}:{mode}]"
        if mode == "zero":
            return label, lambda e_s, e_t: (zero_rows(e_s, i - 1, j - 1), None)
        if mode != "exclude":
            raise ConfigError(f"--mask-mode must be exclude or zero, "
                              f"got {mode!r}")
        if i == 1 and j == length:
            raise ConfigError(f"--mask-from {i} and --mask-to {j} hide every "
                              f"row from attention")
        mask = dn.AttnMask(_hide_rows(length, i - 1, j - 1))
        return label, lambda e_s, e_t: (e_s, mask)
    raise ConfigError(f"unknown recipe {kind!r}")


def cmd_edit(cfg: dict) -> int:
    _require_positive(cfg, "seeds")
    bundle = _load_bundle(cfg["ckpt"])
    label, edit = _build_recipe(cfg, bundle)
    # run_edit writes nothing, so each of its errors exits before the manifest
    outcomes = run_edit(bundle, cfg["from"], cfg["to"], edit,
                        range(cfg["seeds"]))
    out = prepare_out_dir(cfg, "edit")
    write_csv(os.path.join(out, "edits.csv"),
              ["seed", "recipe", "class_src", "class_star", "style_src",
               "style_star", "background_l2"],
              [(s, label, o.class_src, o.class_star, o.style_src,
                o.style_star, o.background_l2) for s, o in enumerate(outcomes)])
    for s, o in list(enumerate(outcomes))[:4]:
        save_pgm(os.path.join(out, f"src_{s}.pgm"), o.i_s)
        save_pgm(os.path.join(out, f"edit_{s}.pgm"), o.i_star)
    conv = np.mean([o.class_star != o.class_src for o in outcomes])
    print(f"{label}: class changed on {conv:.0%} of "
          f"{cfg['seeds']} seeds; report in {out}")
    return EXIT_OK


def cmd_mask_sweep(cfg: dict) -> int:
    """Three mask families per row: single M_i, prefix M_{1..j}, suffix M_{j..L}."""
    _require_positive(cfg, "seeds")
    bundle = _load_bundle(cfg["ckpt"])
    emb = bundle.embed(cfg["prompt"])
    length = emb.shape[0]
    base_class = bundle.class_of_text(cfg["prompt"])
    out = prepare_out_dir(cfg, "mask-sweep")
    hide = functools.partial(_hide_rows, length)
    families = [("none", np.ones(length, dtype=bool))]
    families += [(f"single_M{i + 1}", hide(i, i)) for i in range(length)]
    families += [(f"prefix_M1-{j + 1}", hide(0, j)) for j in range(length - 1)]
    families += [(f"suffix_M{j + 1}-{length}", hide(j, length - 1))
                 for j in range(1, length)]
    labels, allowed = zip(*families)
    # single_M1 and prefix_M1-1 hide the same row, as do single_M<L> and
    # suffix_M<L>-<L>: each distinct mask, in first-seen order, is chained once
    slot = {}
    which = [slot.setdefault(a.tobytes(), len(slot)) for a in allowed]
    masks = np.array(allowed)[np.unique(which, return_index=True)[1]]

    # every distinct mask x seed pair is one row of a single chain
    n = cfg["seeds"]
    imgs = bundle.generate(emb, np.tile(seed_noise(range(n)), (len(masks), 1)),
                           mask=dn.AttnMask(np.repeat(masks, n, axis=0)))
    # and is classified once, in one call for them all
    kept = oracle_classify(bundle.world, imgs)[0] == base_class
    by_mask, kept = imgs.reshape(len(masks), n, -1), kept.reshape(len(masks), n)
    z = 1.959963984540054
    rows = []
    for label, i in zip(labels, which):
        keep = np.mean(kept[i])
        # Wilson 95% interval for the keep rate
        mid = (keep + z * z / (2 * n)) / (1 + z * z / n)
        hw = (z / (1 + z * z / n)
              * np.sqrt(keep * (1 - keep) / n + z * z / (4 * n * n)))
        rows.append((label, keep, mid - hw, mid + hw))
    write_csv(os.path.join(out, "mask_sweep.csv"),
              ["mask", "class_keep_rate", "ci_lo", "ci_hi"], rows)
    for label, i in zip(labels, which):
        save_pgm(os.path.join(out, f"grid_{label}.pgm"), by_mask[i, 0])
    print(f"swept {len(families) - 1} masks x {n} seeds; report in {out}")
    return EXIT_OK


def cmd_svd_dirs(cfg: dict) -> int:
    if cfg["side"] not in ("right", "left"):
        raise ConfigError(f"--side must be right or left, got {cfg['side']!r}")
    bundle = _load_bundle(cfg["ckpt"])
    # an embedding (L, D) has min(L, D) singular directions per side
    rank = min(bundle.enc_cfg.max_len, bundle.enc_cfg.dim)
    if not 0 <= cfg["k"] < rank:
        raise ConfigError(f"--k {cfg['k']} outside the embedding's singular "
                          f"indices 0..{rank - 1}")
    bundle.tokens(cfg["prompt"])  # an unknown word exits before the manifest
    out = prepare_out_dir(cfg, "svd-dirs")
    points = direction_sweep(bundle, cfg["prompt"], cfg["side"], cfg["k"],
                             seed=cfg["seed"])
    write_csv(os.path.join(out, "sweep.csv"),
              ["side", "k", "s", "class", "style", "delta_l2"],
              [(cfg["side"], cfg["k"], p.strength, p.class_index, p.style,
                p.delta_l2) for p in points])
    for p in points:
        save_pgm(os.path.join(out, f"s_{p.strength:+.1f}.pgm"), p.image)
    print(f"swept {len(points)} strengths along {cfg['side']} direction "
          f"{cfg['k']}; report in {out}")
    return EXIT_OK


def cmd_opt_lambda(cfg: dict) -> int:
    _require_positive(cfg, "steps")
    _require_float(cfg, "gamma", lambda v: 0.0 <= v < math.inf,
                   "finite and non-negative")
    bundle = _load_bundle(cfg["ckpt"])
    ocfg = OptConfig(steps=cfg["steps"], seed=cfg["seed"], gamma=cfg["gamma"])
    ctx = make_context(bundle, cfg["from"], cfg["to"], ocfg)
    if not ctx.diff:
        raise ConfigError(f"--from and --to have the same tokens "
                          f"({cfg['from']!r}): no position to optimize")
    out = prepare_out_dir(cfg, "opt-lambda")
    params, trajectory = optimize(ctx, ocfg)
    lam = params.lam()
    write_csv(os.path.join(out, "trajectory.csv"),
              ["step", "loss"] + [f"lambda_{i}" for i in range(lam.size)],
              [(step, loss, *lams) for step, loss, lams in trajectory])
    diff = sorted(ctx.diff)
    print(f"final loss {trajectory[-1][1]:.4f}; "
          f"mean lambda at diff positions {np.mean(lam[diff]):.3f}; "
          f"report in {out}")
    return EXIT_OK


def cmd_invert(cfg: dict) -> int:
    """Invert a rendered sample, then edit its embedding and regenerate."""
    bundle = _load_bundle(cfg["ckpt"])
    world = bundle.world
    k = world.class_index(cfg["class"])
    _require_float(cfg, "style", lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    sample = tw.render(world, k, cfg["style"], Rng(cfg["seed"]).split(2))
    to, emb = bundle.embed([cfg["to"], sample.prompt])
    out = prepare_out_dir(cfg, "invert")
    x_T = bundle.invert(emb, sample.x0)
    recon = bundle.regenerate(emb, x_T)
    err = float(np.max(np.abs(recon - sample.x0)))

    diff = diff_positions(bundle.tokens(sample.prompt),
                          bundle.tokens(cfg["to"]))
    edited = bundle.generate(mix_swap(emb, to, sorted(diff)), x_T)

    save_pgm(os.path.join(out, "real.pgm"), sample.x0)
    save_pgm(os.path.join(out, "recon.pgm"), recon)
    save_pgm(os.path.join(out, "edited.pgm"), edited)
    k_edit, _ = oracle_classify(world, edited)
    write_csv(os.path.join(out, "invert.csv"),
              ["roundtrip_linf", "class_src", "class_edited"],
              [(err, k, k_edit)])
    print(f"round-trip max error {err:.4f}; edited class "
          f"{world.classes[k_edit][0]}; report in {out}")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    # imported here, so no other command compiles the checks
    from .verify import format_report, run_all
    out = prepare_out_dir(cfg, "verify")
    results = run_all(cfg["seed"])
    report = format_report(results)
    write_in_place(os.path.join(out, "verify.txt"), [report])
    print(report, end="")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# --------------------------------------------------------------- parser

# Each command's function and options: key -> (default, help). The flag
# --key parses as type(default).
COMMANDS = {
    "gen-data": (cmd_gen_data, {
        "out": ("runs/gen-data", "output directory"),
        "seed": (0, "dataset seed"),
        "n": (32, "number of samples"),
    }),
    "train": (cmd_train, {
        "out": ("runs/train", "output directory"),
        "seed": (7, "training seed"),
        "steps": (25000, "optimizer steps"),
        "batch-size": (64, "batch size"),
        "lr": (1e-3, "peak learning rate"),
        "T": (100, "diffusion steps"),
        "beta-start": (1e-3, "first beta"),
        "beta-end": (0.2, "last beta"),
    }),
    "sample": (cmd_sample, {
        "out": ("runs/sample", "output directory"),
        "ckpt": ("runs/train/model.ckpt", "checkpoint path"),
        "prompt": ("a photo of hbar bright", "conditioning prompt"),
        "seed": (0, "first seed"),
        "n": (4, "number of images"),
        "mode": ("ddim", "ddim or ddpm"),
    }),
    "edit": (cmd_edit, {
        "out": ("runs/edit", "output directory"),
        "ckpt": ("runs/train/model.ckpt", "checkpoint path"),
        "recipe": ("swap", "swap | soft_swap | scale | style | mask"),
        "from": ("a photo of hbar bright", "source prompt"),
        "to": ("a photo of vbar bright", "target prompt"),
        "positions": ("", "1-based comma-separated positions"),
        "weight": (0.5, "soft_swap source weight"),
        "scale-pos": (0, "1-based position for the scale recipe"),
        "scale": (1.0, "scale factor"),
        "mask-from": (0, "1-based first masked position"),
        "mask-to": (0, "1-based last masked position"),
        "mask-mode": ("exclude", "exclude or zero"),
        "seeds": (16, "number of paired seeds"),
    }),
    "mask-sweep": (cmd_mask_sweep, {
        "out": ("runs/mask-sweep", "output directory"),
        "ckpt": ("runs/train/model.ckpt", "checkpoint path"),
        "prompt": ("a photo of hbar bright", "conditioning prompt"),
        "seeds": (20, "seeds per mask"),
    }),
    "svd-dirs": (cmd_svd_dirs, {
        "out": ("runs/svd-dirs", "output directory"),
        "ckpt": ("runs/train/model.ckpt", "checkpoint path"),
        "prompt": ("a photo of hbar bright", "conditioning prompt"),
        "side": ("right", "right or left singular vectors"),
        "k": (0, "singular index"),
        "seed": (0, "x_T seed"),
    }),
    "opt-lambda": (cmd_opt_lambda, {
        "out": ("runs/opt-lambda", "output directory"),
        "ckpt": ("runs/train/model.ckpt", "checkpoint path"),
        "from": ("a photo of hbar bright", "source prompt"),
        "to": ("a photo of vbar bright", "target prompt"),
        "steps": (150, "optimization steps"),
        "seed": (0, "x_T seed"),
        "gamma": (1.0, "preservation weight"),
    }),
    "invert": (cmd_invert, {
        "out": ("runs/invert", "output directory"),
        "ckpt": ("runs/train/model.ckpt", "checkpoint path"),
        "class": ("hbar", "class name of the rendered sample"),
        "style": (0.9, "brightness of the rendered sample"),
        "seed": (0, "render seed"),
        "to": ("a photo of vbar bright", "edit target prompt"),
    }),
    "verify": (cmd_verify, {
        "out": ("runs/verify", "output directory"),
        "seed": (0, "oracle seed"),
    }),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI parser, built once per process: every parse starts from a
    fresh namespace, so one parser serves every call of main(). Flags are
    matched in full only, so a run script cannot come to depend on a prefix
    that a later flag makes ambiguous."""
    parser = _Parser(prog="embedlab", allow_abbrev=False,
                     description="Toy diffusion text-embedding editing lab")
    parser.add_argument("--version", action="version",
                        version=f"embedlab v{__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for key, (default, hlp) in options.items():
            p.add_argument(f"--{key}", type=type(default), default=default,
                           help=hlp, dest=key.replace("-", "_"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fn, options = COMMANDS[args.command]
        return fn({k: getattr(args, k.replace("-", "_")) for k in options})
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # LinAlgError subclasses ValueError, so it is caught first
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
