"""Command-line experiment runner.

Subcommands: gen-data, train, sample, edit, mask-sweep, svd-dirs,
opt-lambda, invert, verify. Configuration comes from flat key=value files
(`#` comments allowed) with command-line flags taking precedence. The
EMBEDLAB_OUT environment variable overrides the output directory. Every
run writes a `manifest.txt` with the resolved configuration and its hash,
so outputs are attributable and reruns are byte-comparable.

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
from .edit_ops import (EditRecipe, apply_recipe, diff_positions, run_edit,
                       save_edit_report_csv)
from .linalg import ConvergenceError
from .optimizer import (OptConfig, OptimizationError, make_context, optimize,
                        save_trajectory_csv)
from .pipeline import ModelBundle, seed_noise
from .rng import Rng
from .semantics import direction_sweep, save_sweep_csv
from .toyworld import oracle_classify, oracle_style, save_pgm
from .verify import format_report, run_all

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


def load_config_file(path) -> dict:
    """Flat key=value lines; `#` starts a comment; blank lines ignored."""
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    return out


def resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge built-in defaults, config file values, and CLI flags.

    Flags parsed as None mean "not given"; config file keys must all be
    known for this command, and each value must parse as its default's type.
    """
    cfg = dict(defaults)
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            kind = type(defaults[key])
            try:
                cfg[key] = kind(value)
            except ValueError:
                raise ConfigError(f"{args.config}: {key}={value!r} is not "
                                  f"a valid {kind.__name__}") from None
    for key in defaults:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the semantic configuration; output location excluded."""
    text = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k != "out")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def prepare_out_dir(cfg: dict, command: str) -> str:
    out = os.environ.get("EMBEDLAB_OUT") or cfg["out"]
    os.makedirs(out, exist_ok=True)
    lines = [f"command={command}", f"version=v{__version__}",
             "python={}.{}.{}".format(*sys.version_info[:3]),
             f"numpy={np.__version__}",
             f"config_hash={config_hash(cfg)}"]
    lines += [f"{k}={cfg[k]}" for k in sorted(cfg) if k != "out"]
    with open(os.path.join(out, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return out


def _require_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise ConfigError(f"--{key} must be at least 1, got {cfg[key]}")


def _load_bundle(path) -> ModelBundle:
    try:
        tensors = dn.load_checkpoint(path)
        enc_params, den_params, enc_cfg, den_cfg, meta = dn.split_checkpoint(tensors)
    except (OSError, ValueError, KeyError) as e:
        raise ConfigError(f"cannot load checkpoint {path!r}: {e}") from e
    vocab = te.default_vocabulary()
    if enc_params["tok_emb"].shape[0] != vocab.size:
        raise ConfigError(f"checkpoint {path!r} embeds "
                          f"{enc_params['tok_emb'].shape[0]} tokens, the "
                          f"vocabulary has {vocab.size}")
    sched = make_schedule(int(meta[0]), meta[1], meta[2])
    return ModelBundle(world=tw.default_world(), vocab=vocab,
                       enc_cfg=enc_cfg, den_cfg=den_cfg, sched=sched,
                       enc_params=enc_params, den_params=den_params)


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
    return tuple(p - 1 for p in pos)


# ------------------------------------------------------------- commands

def cmd_gen_data(cfg: dict) -> int:
    _require_positive(cfg, "n")
    out = prepare_out_dir(cfg, "gen-data")
    world = tw.default_world()
    rng = Rng(cfg["seed"]).split(0)
    samples = []
    for i in range(cfg["n"]):
        k = rng.randint(len(world.classes))
        style = 0.3 + 0.7 * rng.uniform()
        samples.append(tw.render(world, k, style, rng))
    tw.save_dataset_csv(os.path.join(out, "dataset.csv"), samples)
    for i, s in enumerate(samples[:8]):
        save_pgm(os.path.join(out, f"sample_{i}.pgm"), s.x0)
    print(f"wrote {cfg['n']} samples to {out}")
    return EXIT_OK


def cmd_train(cfg: dict) -> int:
    _require_positive(cfg, "steps", "batch-size")
    if not (math.isfinite(cfg["lr"]) and cfg["lr"] > 0.0):
        raise ConfigError(f"--lr must be finite and positive, got {cfg['lr']}")
    out = prepare_out_dir(cfg, "train")
    world = tw.default_world()
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig()
    den_cfg = dn.DenoiserConfig()
    sched = make_schedule(cfg["T"], cfg["beta-start"], cfg["beta-end"])
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
    tensors = dn.checkpoint_tensors(enc_params, den_params, enc_cfg, den_cfg,
                                    (cfg["T"], cfg["beta-start"], cfg["beta-end"]))
    ckpt = os.path.join(out, "model.ckpt")
    dn.save_checkpoint(ckpt, tensors)
    with open(os.path.join(out, "loss.csv"), "w", encoding="utf-8") as f:
        f.write("step,loss\n")
        for step, loss in log:
            f.write(f"{step},{loss:.17g}\n")
    print(f"final loss {log[-1][1]:.4f}; checkpoint at {ckpt}")
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    _require_positive(cfg, "n")
    out = prepare_out_dir(cfg, "sample")
    bundle = _load_bundle(cfg["ckpt"])
    emb = bundle.embed(cfg["prompt"])
    seeds = range(cfg["seed"], cfg["seed"] + cfg["n"])
    imgs = bundle.generate(emb, np.stack([seed_noise(s) for s in seeds]),
                           mode=cfg["mode"],
                           rng=[Rng(s).split(1) for s in seeds])
    with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as f:
        f.write("seed,class,score,style\n")
        for seed, img in zip(seeds, imgs):
            k, score = oracle_classify(bundle.world, img)
            style = oracle_style(bundle.world, img, k)
            f.write(f"{seed},{k},{score:.17g},{style:.17g}\n")
            save_pgm(os.path.join(out, f"gen_{seed}.pgm"), img)
    print(f"generated {cfg['n']} images for {cfg['prompt']!r} in {out}")
    return EXIT_OK


def _build_recipe(cfg: dict, bundle: ModelBundle) -> EditRecipe:
    kind = cfg["recipe"]
    t_s = bundle.tokens(cfg["from"])
    t_t = bundle.tokens(cfg["to"])
    length = bundle.enc_cfg.max_len
    if kind in ("swap", "soft_swap"):
        if cfg["positions"]:
            positions = _parse_positions(cfg["positions"], length)
        else:
            positions = tuple(sorted(diff_positions(t_s, t_t)))
        return EditRecipe(kind=kind, positions=positions, weight=cfg["weight"])
    if kind == "scale":
        pos = cfg["scale-pos"]
        if pos < 1:
            raise ConfigError("--scale-pos is 1-based; the smallest is 1")
        if pos > length:
            raise ConfigError(f"--scale-pos {pos} past the embedding's "
                              f"{length} rows")
        return EditRecipe(kind="scale", scale_pos=pos - 1, scale=cfg["scale"])
    if kind == "style":
        return EditRecipe(kind="style")
    if kind == "mask":
        i, j = cfg["mask-from"], cfg["mask-to"]
        if i < 1 or j < i:
            raise ConfigError("--mask-from and --mask-to are 1-based and "
                              "need from <= to")
        if j > length:
            raise ConfigError(f"--mask-to {j} past the embedding's "
                              f"{length} rows")
        return EditRecipe(kind="mask", mask_range=(i - 1, j - 1),
                          mask_mode=cfg["mask-mode"])
    raise ConfigError(f"unknown recipe {kind!r}")


def cmd_edit(cfg: dict) -> int:
    _require_positive(cfg, "seeds")
    out = prepare_out_dir(cfg, "edit")
    bundle = _load_bundle(cfg["ckpt"])
    recipe = _build_recipe(cfg, bundle)
    outcomes = run_edit(bundle, cfg["from"], cfg["to"], recipe,
                        range(cfg["seeds"]))
    rows = [(s, recipe.label(), o) for s, o in enumerate(outcomes)]
    save_edit_report_csv(os.path.join(out, "edits.csv"), rows)
    for s, o in list(enumerate(outcomes))[:4]:
        save_pgm(os.path.join(out, f"src_{s}.pgm"), o.i_s)
        save_pgm(os.path.join(out, f"edit_{s}.pgm"), o.i_star)
    conv = np.mean([o.class_star != o.class_src for o in outcomes])
    print(f"{recipe.label()}: class changed on {conv:.0%} of "
          f"{cfg['seeds']} seeds; report in {out}")
    return EXIT_OK


def cmd_mask_sweep(cfg: dict) -> int:
    """Three mask families per row: single M_i, prefix M_{1..j}, suffix M_{j..L}."""
    _require_positive(cfg, "seeds")
    out = prepare_out_dir(cfg, "mask-sweep")
    bundle = _load_bundle(cfg["ckpt"])
    emb = bundle.embed(cfg["prompt"])
    length = emb.data.shape[0]
    base_class = bundle.class_of_text(cfg["prompt"])

    def hide(lo, hi):
        allowed = np.ones(length, dtype=bool)
        allowed[lo:hi + 1] = False
        return allowed

    families = [("none", np.ones(length, dtype=bool))]
    families += [(f"single_M{i + 1}", hide(i, i)) for i in range(length)]
    families += [(f"prefix_M1-{j + 1}", hide(0, j)) for j in range(length - 1)]
    families += [(f"suffix_M{j + 1}-{length}", hide(j, length - 1))
                 for j in range(1, length)]
    labels, allowed = zip(*families)

    # every family x seed pair is one row of a single chain
    n = cfg["seeds"]
    x_T = np.stack([seed_noise(s) for s in range(n)])
    imgs = bundle.generate(emb, np.tile(x_T, (len(families), 1)),
                           mask=dn.AttnMask(np.repeat(allowed, n, axis=0)))
    imgs = imgs.reshape(len(families), n, -1)
    z = 1.959963984540054
    with open(os.path.join(out, "mask_sweep.csv"), "w", encoding="utf-8") as f:
        f.write("mask,class_keep_rate,ci_lo,ci_hi\n")
        for label, fam_imgs in zip(labels, imgs):
            keep = np.mean([oracle_classify(bundle.world, im)[0] == base_class
                            for im in fam_imgs])
            # Wilson 95% interval for the keep rate
            mid = (keep + z * z / (2 * n)) / (1 + z * z / n)
            hw = (z / (1 + z * z / n)
                  * np.sqrt(keep * (1 - keep) / n + z * z / (4 * n * n)))
            f.write(f"{label},{float(keep):.17g},{float(mid - hw):.17g},"
                    f"{float(mid + hw):.17g}\n")
    for label, fam_imgs in zip(labels, imgs):
        save_pgm(os.path.join(out, f"grid_{label}.pgm"), fam_imgs[0])
    print(f"swept {len(families) - 1} masks x {n} seeds; report in {out}")
    return EXIT_OK


def cmd_svd_dirs(cfg: dict) -> int:
    out = prepare_out_dir(cfg, "svd-dirs")
    bundle = _load_bundle(cfg["ckpt"])
    if cfg["side"] not in ("right", "left"):
        raise ConfigError(f"side must be right or left, got {cfg['side']!r}")
    # an embedding (L, D) has min(L, D) singular directions per side
    rank = min(bundle.enc_cfg.max_len, bundle.enc_cfg.dim)
    if not 0 <= cfg["k"] < rank:
        raise ConfigError(f"--k {cfg['k']} outside the embedding's singular "
                          f"indices 0..{rank - 1}")
    points = direction_sweep(bundle, cfg["prompt"], cfg["side"], cfg["k"],
                             seed=cfg["seed"])
    save_sweep_csv(os.path.join(out, "sweep.csv"), cfg["side"], cfg["k"], points)
    for p in points:
        save_pgm(os.path.join(out, f"s_{p.strength:+.1f}.pgm"), p.image)
    print(f"swept {len(points)} strengths along {cfg['side']} direction "
          f"{cfg['k']}; report in {out}")
    return EXIT_OK


def cmd_opt_lambda(cfg: dict) -> int:
    _require_positive(cfg, "steps")
    out = prepare_out_dir(cfg, "opt-lambda")
    bundle = _load_bundle(cfg["ckpt"])
    ocfg = OptConfig(steps=cfg["steps"], seed=cfg["seed"], gamma=cfg["gamma"])
    ctx = make_context(bundle, cfg["from"], cfg["to"], ocfg)
    if not ctx.diff:
        raise ConfigError(f"--from and --to have the same tokens "
                          f"({cfg['from']!r}): no position to optimize")
    params, trajectory = optimize(ctx, ocfg)
    save_trajectory_csv(os.path.join(out, "trajectory.csv"), trajectory)
    lam = params.lam()
    diff = sorted(ctx.diff)
    print(f"final loss {trajectory[-1][1]:.4f}; "
          f"mean lambda at diff positions {np.mean(lam[diff]):.3f}; "
          f"report in {out}")
    return EXIT_OK


def cmd_invert(cfg: dict) -> int:
    """Invert a rendered sample, then edit its embedding and regenerate."""
    out = prepare_out_dir(cfg, "invert")
    bundle = _load_bundle(cfg["ckpt"])
    world = bundle.world
    k = world.class_index(cfg["class"])
    sample = tw.render(world, k, cfg["style"], Rng(cfg["seed"]).split(2))
    emb = bundle.embed(sample.prompt)
    x_T = bundle.invert(emb, sample.x0)
    recon = bundle.regenerate(emb, x_T)
    err = float(np.max(np.abs(recon - sample.x0)))

    t_s = bundle.tokens(sample.prompt)
    t_t = bundle.tokens(cfg["to"])
    recipe = EditRecipe(kind="swap",
                        positions=tuple(sorted(diff_positions(t_s, t_t))))
    e_star, mask = apply_recipe(recipe, emb, bundle.embed(cfg["to"]))
    edited = bundle.generate(e_star, x_T, mask=mask)

    save_pgm(os.path.join(out, "real.pgm"), sample.x0)
    save_pgm(os.path.join(out, "recon.pgm"), recon)
    save_pgm(os.path.join(out, "edited.pgm"), edited)
    k_edit, _ = oracle_classify(world, edited)
    with open(os.path.join(out, "invert.csv"), "w", encoding="utf-8") as f:
        f.write("roundtrip_linf,class_src,class_edited\n")
        f.write(f"{err:.17g},{k},{k_edit}\n")
    print(f"round-trip max error {err:.4f}; edited class "
          f"{world.classes[k_edit][0]}; report in {out}")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    out = prepare_out_dir(cfg, "verify")
    results = run_all(cfg["seed"])
    report = format_report(results)
    with open(os.path.join(out, "verify.txt"), "w", encoding="utf-8") as f:
        f.write(report)
    print(report, end="")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# --------------------------------------------------------------- parser

# Each command's function and options: key -> (default, help). The flag
# --key and the config-file key parse as type(default).
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
    fresh namespace, so one parser serves every call of main()."""
    parser = _Parser(prog="embedlab",
                     description="Toy diffusion text-embedding editing lab")
    parser.add_argument("--version", action="version",
                        version=f"embedlab v{__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, defaults={k: d for k, (d, _) in options.items()})
        p.add_argument("--config", help="key=value config file")
        for key, (default, hlp) in options.items():
            p.add_argument(f"--{key}", type=type(default), default=None,
                           help=hlp, dest=key.replace("-", "_"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(resolve_config(args, args.defaults))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (dn.TrainingError, OptimizationError, ConvergenceError,
            FloatingPointError, ZeroDivisionError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
