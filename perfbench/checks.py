"""Output checks for the benchmark workloads.

Every check reads the files a command wrote and compares them with a
computation made here, apart from embedlab, or with a property the method
must have. Nothing is compared with stored output. Each function returns a
list of failure messages; an empty list means the output passed.

This module imports only numpy and the standard library, so a fault in the
program cannot hide behind the same fault in the check.
"""

import csv
import math
import os
import struct

import numpy as np

# The four class patterns of the toy world, written out cell by cell
# ('#' = 1, '.' = 0), rows top to bottom.
PATTERNS = {
    "hbar": ["........", "........", "........", "########",
             "########", "........", "........", "........"],
    "vbar": ["...##...", "...##...", "...##...", "...##...",
             "...##...", "...##...", "...##...", "...##..."],
    "cross": ["......#.", "########", "......#.", "......#.",
              "......#.", "......#.", "......#.", "......#."],
    "diag": ["##......", ".##.....", "..##....", "...##...",
             "....##..", ".....##.", "......##", ".......#"],
}
CLASSES = ("hbar", "vbar", "cross", "diag")
STYLE_WORDS = ("dim", "bright")
# BOS, EOS, PAD and the nine words of the prompt vocabulary
VOCAB_SIZE = 3 + len(("a", "photo", "of") + CLASSES + STYLE_WORDS)

CLAMP_LO, CLAMP_HI = -0.2, 1.2   # the range of generated pixels
ZERO_NOISE_L1 = math.sqrt(2.0 / math.pi)  # E|eps| for eps ~ N(0, 1)
MIN_PROMPT_ACCURACY = 0.90   # acceptance criterion 5
MIN_UNMASKED_KEEP = 0.90
MIN_SWAP_CONVERSION = 0.80   # acceptance criterion 7
MAX_ROUNDTRIP_LINF = 0.05    # acceptance criterion 11
WILSON_Z = 1.959963984540054
WILSON_TOL = 1e-12


def pattern_matrix() -> np.ndarray:
    """(4, 64) matrix of the class patterns in CLASSES order."""
    return np.array([[1.0 if c == "#" else 0.0 for row in PATTERNS[name]
                      for c in row] for name in CLASSES])


def classify(x: np.ndarray) -> int:
    """Class whose pattern correlates best with x; ties go to the lowest."""
    pats = pattern_matrix()
    scores = pats @ np.asarray(x, dtype=np.float64).ravel()
    scores /= np.sqrt(np.sum(pats * pats, axis=1))
    return int(np.argmax(scores))


def read_pgm(path) -> np.ndarray:
    """The 64 grey levels (0..255) of an ASCII (P2) 8x8 PGM image."""
    with open(path, encoding="ascii") as f:
        tokens = f.read().split()
    if tokens[:4] != ["P2", "8", "8", "255"] or len(tokens) != 68:
        raise ValueError(f"{path}: not an 8x8 P2 image")
    levels = np.array([int(t) for t in tokens[4:]])
    if levels.min() < 0 or levels.max() > 255:
        raise ValueError(f"{path}: grey level outside 0..255")
    return levels


def possible_classes(levels: np.ndarray) -> set:
    """Classes the image behind a PGM could have been given.

    A PGM rounds each pixel to 1/255 and clips it to [0, 1], while images
    range over [CLAMP_LO, CLAMP_HI]. Each grey level thus bounds its pixel
    to an interval; class j is possible unless some other class scores
    higher for every image inside those intervals.
    """
    half = 0.5 / 255 + 1e-9
    x = levels / 255.0
    lo = np.where(levels == 0, CLAMP_LO, x - half)
    hi = np.where(levels == 255, CLAMP_HI, x + half)
    pats = pattern_matrix()
    w = pats / np.sqrt(np.sum(pats * pats, axis=1))[:, None]
    out = set()
    for j in range(len(CLASSES)):
        c = w[j] - w   # score_j - score_m is linear in the image, per m
        best = np.sum(np.maximum(c * lo, c * hi), axis=1)
        if np.all(best >= 0.0):
            out.add(j)
    return out


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def class_of_prompt(prompt: str) -> int:
    return CLASSES.index(prompt.split()[3])


# --------------------------------------------------------------- train

def read_emb1(path) -> dict:
    """Parse the EMB1 checkpoint layout.

    magic "EMB1", u32 tensor count, then per tensor: u32 name length, UTF-8
    name, u32 ndim, u32 dims, little-endian f64 data. The whole file must
    be consumed.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"EMB1":
        raise ValueError("bad magic")
    pos = 4

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"truncated at byte {pos}")
        chunk = buf[pos:pos + n]
        pos += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        name = take(nlen).decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n = math.prod(dims)
        out[name] = np.frombuffer(take(8 * n), dtype="<f8").reshape(dims)
    if pos != len(buf):
        raise ValueError(f"{len(buf) - pos} trailing bytes")
    return out


def expected_shapes(tensors: dict) -> dict:
    """Tensor shapes implied by the configuration stored in the checkpoint."""
    max_len, dim, n_blocks, _ = (int(v) for v in tensors["meta.enc_cfg"])
    x_dim, d_h, d_a, t_feat, emb_dim, _ = (int(v) for v in tensors["meta.den_cfg"])
    shapes = {
        "meta.enc_cfg": (4,), "meta.den_cfg": (6,), "meta.schedule": (3,),
        "enc.tok_emb": (VOCAB_SIZE, dim), "enc.pos_emb": (max_len, dim),
        "enc.ln_f_g": (dim,), "enc.ln_f_b": (dim,),
        "den.w_in": (x_dim, d_h), "den.w_t": (t_feat, d_h),
        "den.wq": (d_h, d_a), "den.wk": (emb_dim, d_a),
        "den.wv": (emb_dim, d_a), "den.wo": (d_a, d_h),
        "den.w1": (d_h, d_h), "den.w2": (d_h, x_dim),
    }
    for i in range(n_blocks):
        for name in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
            shapes[f"enc.b{i}.{name}"] = (dim,)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"enc.b{i}.{name}"] = (dim, dim)
        shapes[f"enc.b{i}.w1"] = (dim, 4 * dim)
        shapes[f"enc.b{i}.w2"] = (4 * dim, dim)
    return shapes


def check_checkpoint(path) -> list:
    try:
        tensors = read_emb1(path)
        want = expected_shapes(tensors)
    except (OSError, ValueError, KeyError, struct.error) as e:
        return [f"checkpoint {path}: {e}"]
    fails = []
    if set(tensors) != set(want):
        fails.append(f"checkpoint tensors {sorted(set(tensors) ^ set(want))} "
                     "missing or unexpected")
    for name, arr in tensors.items():
        if name in want and arr.shape != want[name]:
            fails.append(f"{name} has shape {arr.shape}, config implies "
                         f"{want[name]}")
        if not np.all(np.isfinite(arr)):
            fails.append(f"{name} has non-finite entries")
    return fails


def check_loss_log(path, steps: int) -> list:
    rows = read_csv(path)
    if not rows:
        return ["loss.csv is empty"]
    losses = [float(r["loss"]) for r in rows]
    fails = []
    if int(rows[-1]["step"]) != steps:
        fails.append(f"last logged step {rows[-1]['step']} != {steps}")
    if not all(math.isfinite(v) for v in losses):
        fails.append("a logged loss is not finite")
    elif losses[-1] >= ZERO_NOISE_L1:
        fails.append(f"final loss {losses[-1]:.4f} is not below "
                     f"{ZERO_NOISE_L1:.4f}, the L1 loss of predicting zero noise")
    return fails


def check_train(out_dir, steps: int) -> list:
    return (check_loss_log(os.path.join(out_dir, "loss.csv"), steps)
            + check_checkpoint(os.path.join(out_dir, "model.ckpt")))


# ------------------------------------------------------------ generate

def check_sample(out_dir, prompt: str, first_seed: int, n: int):
    """Returns (failures, images classified as the prompt's class)."""
    rows = read_csv(os.path.join(out_dir, "metrics.csv"))
    seeds = [int(r["seed"]) for r in rows]
    if seeds != list(range(first_seed, first_seed + n)):
        return [f"{prompt!r}: metrics.csv seeds {seeds}"], 0
    fails = []
    hits = 0
    for r in rows:
        levels = read_pgm(os.path.join(out_dir, f"gen_{r['seed']}.pgm"))
        if int(r["class"]) not in possible_classes(levels):
            fails.append(f"{prompt!r} seed {r['seed']}: image cannot be class "
                         f"{r['class']}, as metrics.csv says")
        hits += classify(levels / 255.0) == class_of_prompt(prompt)
    return fails, hits


def check_prompt_accuracy(hits: int, total: int) -> list:
    if hits < MIN_PROMPT_ACCURACY * total:
        return [f"only {hits}/{total} images show their prompt's class"]
    return []


def wilson(rate: float, n: int):
    """95% Wilson score interval of a binomial rate observed over n trials."""
    z2 = WILSON_Z * WILSON_Z
    centre = (rate + z2 / (2 * n)) / (1 + z2 / n)
    half = WILSON_Z * math.sqrt(rate * (1 - rate) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return centre - half, centre + half


def check_mask_sweep(out_dir, seeds: int, length: int) -> list:
    rows = read_csv(os.path.join(out_dir, "mask_sweep.csv"))
    want = 1 + length + 2 * (length - 1)
    if len(rows) != want:
        return [f"mask_sweep.csv has {len(rows)} rows, want {want}"]
    fails = []
    for r in rows:
        rate, lo, hi = (float(r[k]) for k in ("class_keep_rate", "ci_lo", "ci_hi"))
        if abs(rate * seeds - round(rate * seeds)) > 1e-9 or not 0 <= rate <= 1:
            fails.append(f"{r['mask']}: keep rate {rate} is not k/{seeds}")
            continue
        w_lo, w_hi = wilson(rate, seeds)
        if abs(lo - w_lo) > WILSON_TOL or abs(hi - w_hi) > WILSON_TOL:
            fails.append(f"{r['mask']}: interval ({lo}, {hi}) != Wilson "
                         f"({w_lo}, {w_hi}) for rate {rate}, n {seeds}")
    if rows[0]["mask"] != "none":
        fails.append("first mask_sweep.csv row is not the unmasked one")
    elif float(rows[0]["class_keep_rate"]) < MIN_UNMASKED_KEEP:
        fails.append(f"unmasked keep rate {rows[0]['class_keep_rate']} < "
                     f"{MIN_UNMASKED_KEEP}")
    return fails


# ---------------------------------------------------------------- edit

def read_edits(out_dir, seeds: int):
    rows = read_csv(os.path.join(out_dir, "edits.csv"))
    if [int(r["seed"]) for r in rows] != list(range(seeds)):
        raise ValueError(f"edits.csv in {out_dir} does not list seeds 0..{seeds - 1}")
    return rows


def check_scale_identity(out_dir, seeds: int) -> list:
    """A fader at c = 1 leaves the embedding, hence the image, unchanged."""
    fails = []
    for r in read_edits(out_dir, seeds):
        if float(r["background_l2"]) != 0.0:
            fails.append(f"scale c=1 seed {r['seed']}: background_l2 "
                         f"{r['background_l2']} != 0")
        if r["class_src"] != r["class_star"]:
            fails.append(f"scale c=1 seed {r['seed']}: source and edit classes differ")
    for s in range(min(seeds, 4)):
        with open(os.path.join(out_dir, f"src_{s}.pgm"), "rb") as f:
            src = f.read()
        with open(os.path.join(out_dir, f"edit_{s}.pgm"), "rb") as f:
            if f.read() != src:
                fails.append(f"scale c=1 seed {s}: images differ")
    return fails


def check_swap(out_dir, seeds: int, target: str) -> list:
    k = CLASSES.index(target)
    rows = read_edits(out_dir, seeds)
    conv = sum(int(r["class_star"]) == k for r in rows)
    if conv < MIN_SWAP_CONVERSION * seeds:
        return [f"swap reached {target} on only {conv}/{seeds} seeds"]
    return []


def check_edit_report(out_dir, seeds: int) -> list:
    """Every row names valid classes and finite scores; images match rows."""
    fails = []
    rows = read_edits(out_dir, seeds)
    for r in rows:
        if not {int(r["class_src"]), int(r["class_star"])} <= set(range(len(CLASSES))):
            fails.append(f"seed {r['seed']}: class out of range")
        vals = [float(r[k]) for k in ("style_src", "style_star", "background_l2")]
        if not all(math.isfinite(v) for v in vals) or vals[2] < 0:
            fails.append(f"seed {r['seed']}: bad scores {vals}")
    for r in rows[:4]:
        for name, col in (("src", "class_src"), ("edit", "class_star")):
            levels = read_pgm(os.path.join(out_dir, f"{name}_{r['seed']}.pgm"))
            if int(r[col]) not in possible_classes(levels):
                fails.append(f"seed {r['seed']}: {name} image cannot be class "
                             f"{r[col]}, as edits.csv says")
    return fails


def check_invert(out_dir) -> list:
    (row,) = read_csv(os.path.join(out_dir, "invert.csv"))
    err = float(row["roundtrip_linf"])
    if not err < MAX_ROUNDTRIP_LINF:
        return [f"inversion round trip L-inf {err} is not below {MAX_ROUNDTRIP_LINF}"]
    return []


def check_svd_sweep(out_dir, n_points: int) -> list:
    rows = read_csv(os.path.join(out_dir, "sweep.csv"))
    if len(rows) != n_points:
        return [f"sweep.csv has {len(rows)} rows, want {n_points}"]
    zero = [r for r in rows if float(r["s"]) == 0.0]
    if len(zero) != 1 or float(zero[0]["delta_l2"]) != 0.0:
        return [f"strength-0 rows {zero} must be one row with delta_l2 0"]
    if not all(math.isfinite(float(r["delta_l2"])) for r in rows):
        return ["sweep.csv has a non-finite delta_l2"]
    return []


def check_trajectory(out_dir, steps: int) -> list:
    rows = read_csv(os.path.join(out_dir, "trajectory.csv"))
    if [int(r["step"]) for r in rows] != list(range(steps + 1)):
        return [f"trajectory.csv does not list steps 0..{steps}"]
    losses = [float(r["loss"]) for r in rows]
    fails = []
    if not all(math.isfinite(v) for v in losses):
        fails.append("a lambda loss is not finite")
    for i in range(steps):
        if losses[i + 1] > losses[i]:
            fails.append(f"lambda loss rose at step {i + 1}: "
                         f"{losses[i]} -> {losses[i + 1]}")
    lams = [float(v) for r in rows for k, v in r.items() if k.startswith("lambda_")]
    if not lams or not all(0.0 < v < 1.0 for v in lams):
        fails.append("a lambda left the open interval (0, 1)")
    return fails
