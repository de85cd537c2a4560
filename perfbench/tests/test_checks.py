"""Each output check passes on a well-formed output and fails on a doctored one.

Run from the repository root: python3 -m pytest perfbench/tests -q
The outputs are built here by hand, in the formats embedlab writes.
"""

import math
import os
import struct
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import checks  # noqa: E402


def write_pgm(path, x):
    vals = np.clip(np.rint(np.asarray(x).reshape(8, 8) * 255), 0, 255).astype(int)
    rows = [" ".join(str(v) for v in row) for row in vals]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(["P2", "8 8", "255"] + rows) + "\n")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for r in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                             for v in r) + "\n")


def pattern(name):
    return checks.pattern_matrix()[checks.CLASSES.index(name)]


# ---------------------------------------------------------------- train

def write_emb1(path, tensors):
    with open(path, "wb") as f:
        f.write(b"EMB1" + struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)) + nb + struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def small_tensors():
    meta = {"meta.enc_cfg": np.array([16.0, 8, 1, 2]),
            "meta.den_cfg": np.array([64.0, 4, 3, 2, 8, 16]),
            "meta.schedule": np.array([100, 1e-3, 0.2])}
    want = checks.expected_shapes(meta)
    rng = np.random.default_rng(0)
    return {k: meta.get(k, rng.normal(size=shape)) for k, shape in want.items()}


def test_checkpoint_reader_accepts_config_shapes(tmp_path):
    write_emb1(tmp_path / "m.ckpt", small_tensors())
    assert checks.check_checkpoint(tmp_path / "m.ckpt") == []


@pytest.mark.parametrize("doctor", ["shape", "nan", "missing", "truncate"])
def test_checkpoint_reader_rejects_doctored(tmp_path, doctor):
    t = small_tensors()
    if doctor == "shape":
        t["den.w2"] = np.zeros((4, 63))
    elif doctor == "nan":
        t["den.w2"][0, 0] = np.nan
    elif doctor == "missing":
        del t["enc.b0.w1"]
    write_emb1(tmp_path / "m.ckpt", t)
    if doctor == "truncate":
        data = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "m.ckpt").write_bytes(data[:-3])
    assert checks.check_checkpoint(tmp_path / "m.ckpt")


@pytest.mark.parametrize("losses,ok", [
    ([0.75, 0.65], True),
    ([0.65, 0.80], False),          # final loss not below sqrt(2/pi)
    ([float("nan"), 0.6], False),   # a non-finite logged loss
])
def test_loss_log(tmp_path, losses, ok):
    write_csv(tmp_path / "loss.csv", ["step", "loss"],
              [(100 * (i + 1), v) for i, v in enumerate(losses)])
    assert (checks.check_loss_log(tmp_path / "loss.csv", 200) == []) == ok


# ------------------------------------------------------------- generate

def write_sample(d, prompt, first, n, flip=None):
    k = checks.class_of_prompt(prompt)
    rows = []
    for s in range(first, first + n):
        img = 0.9 * pattern(checks.CLASSES[k])
        write_pgm(d / f"gen_{s}.pgm", img)
        rows.append((s, k, 0.9, 0.9))
    if flip is not None:   # the image now shows another class than reported
        write_pgm(d / f"gen_{first + flip}.pgm", pattern("diag"))
    write_csv(d / "metrics.csv", ["seed", "class", "score", "style"], rows)


def test_sample_check_passes(tmp_path):
    write_sample(tmp_path, "a photo of vbar dim", 5, 4)
    fails, hits = checks.check_sample(tmp_path, "a photo of vbar dim", 5, 4)
    assert fails == [] and hits == 4


def test_sample_check_catches_flipped_image(tmp_path):
    write_sample(tmp_path, "a photo of vbar dim", 5, 4, flip=2)
    fails, hits = checks.check_sample(tmp_path, "a photo of vbar dim", 5, 4)
    assert len(fails) == 1 and hits == 3


def test_sample_check_catches_single_flipped_pixel(tmp_path):
    # a near tie: hbar cells at 0.52, vbar cells at 0.5, shared cells at 1
    x = np.maximum(0.52 * pattern("hbar"), 0.5 * pattern("vbar"))
    x[(pattern("hbar") > 0) & (pattern("vbar") > 0)] = 1.0
    write_pgm(tmp_path / "gen_0.pgm", x)
    write_csv(tmp_path / "metrics.csv", ["seed", "class", "score", "style"],
              [(0, 0, 0.5, 0.5)])
    assert checks.possible_classes(checks.read_pgm(tmp_path / "gen_0.pgm")) == {0}
    assert checks.check_sample(tmp_path, "a photo of hbar dim", 0, 1)[0] == []
    x[3 * 8] = 0.0   # one cell of hbar alone
    write_pgm(tmp_path / "gen_0.pgm", x)
    assert checks.possible_classes(checks.read_pgm(tmp_path / "gen_0.pgm")) == {1}
    assert checks.check_sample(tmp_path, "a photo of hbar dim", 0, 1)[0]


def test_possible_classes_allow_for_clipping():
    # a pixel written as 0 may have been as low as CLAMP_LO: an image whose
    # PGM reads as a tie cannot rule out either class
    x = 0.5 * pattern("hbar") + 0.5 * pattern("vbar")
    levels = np.rint(np.clip(x, 0, 1) * 255).astype(int)
    assert {0, 1} <= checks.possible_classes(levels)


def test_prompt_accuracy():
    assert checks.check_prompt_accuracy(58, 64) == []
    assert checks.check_prompt_accuracy(57, 64)


def sweep_rows(n, rates):
    rows = []
    for i, rate in enumerate(rates):
        lo, hi = checks.wilson(rate, n)
        rows.append(("none" if i == 0 else f"single_M{i}", rate, lo, hi))
    return rows


def test_wilson_matches_definition():
    # the bounds are the roots of (p - q)^2 = z^2 q (1 - q) / n
    z2 = checks.WILSON_Z ** 2
    for rate, n in ((0.0, 20), (0.35, 20), (1.0, 7)):
        for q in checks.wilson(rate, n):
            assert abs((rate - q) ** 2 - z2 * q * (1 - q) / n) < 1e-12


@pytest.mark.parametrize("doctor", [None, "interval", "rate", "keep", "rows"])
def test_mask_sweep(tmp_path, doctor):
    n, length = 20, 4
    rows = sweep_rows(n, [1.0, 0.95, 0.5, 0.0, 0.05, 1.0, 0.9, 0.35, 0.2, 1.0, 0.6])
    if doctor == "interval":
        rows[2] = rows[2][:3] + (rows[2][3] + 1e-6,)
    elif doctor == "rate":
        rows[2] = (rows[2][0], 0.52) + rows[2][2:]
    elif doctor == "keep":
        rows[0] = sweep_rows(n, [0.85])[0]
    elif doctor == "rows":
        rows.pop()
    write_csv(tmp_path / "mask_sweep.csv",
              ["mask", "class_keep_rate", "ci_lo", "ci_hi"], rows)
    fails = checks.check_mask_sweep(tmp_path, n, length)
    assert (fails == []) == (doctor is None)


# ----------------------------------------------------------------- edit

EDIT_HEADER = ["seed", "recipe", "class_src", "class_star", "style_src",
               "style_star", "background_l2"]


def write_edits(d, rows, images=True):
    write_csv(d / "edits.csv", EDIT_HEADER, rows)
    if images:
        for s, _, k_src, k_star, *_ in rows[:4]:
            write_pgm(d / f"src_{s}.pgm", 0.9 * pattern(checks.CLASSES[k_src]))
            write_pgm(d / f"edit_{s}.pgm", 0.9 * pattern(checks.CLASSES[k_star]))


def test_scale_identity(tmp_path):
    rows = [(s, "scale[5x1.0]", 0, 0, 0.9, 0.9, 0.0) for s in range(6)]
    write_edits(tmp_path, rows)
    assert checks.check_scale_identity(tmp_path, 6) == []
    assert checks.check_edit_report(tmp_path, 6) == []
    rows[3] = (3, "scale[5x1.0]", 0, 0, 0.9, 0.9, 5e-324)
    write_edits(tmp_path, rows)
    assert checks.check_scale_identity(tmp_path, 6)


def test_scale_identity_catches_flipped_pixel(tmp_path):
    rows = [(s, "scale[5x1.0]", 0, 0, 0.9, 0.9, 0.0) for s in range(4)]
    write_edits(tmp_path, rows)
    x = 0.9 * pattern("hbar")
    x[0] = 0.5
    write_pgm(tmp_path / "edit_1.pgm", x)
    assert checks.check_scale_identity(tmp_path, 4)


@pytest.mark.parametrize("converted,ok", [(16, True), (13, True), (12, False)])
def test_swap_conversion(tmp_path, converted, ok):
    rows = [(s, "swap[4]", 0, 1 if s < converted else 0, 0.9, 0.9, 0.1)
            for s in range(16)]
    write_edits(tmp_path, rows)
    assert (checks.check_swap(tmp_path, 16, "vbar") == []) == ok


def test_edit_report_rejects_bad_rows(tmp_path):
    rows = [(s, "style", 2, 2, 0.9, 0.9, 0.1) for s in range(4)]
    write_edits(tmp_path, rows)
    assert checks.check_edit_report(tmp_path, 4) == []
    write_edits(tmp_path, rows[:3])
    with pytest.raises(ValueError):
        checks.check_edit_report(tmp_path, 4)
    rows[1] = (1, "style", 2, 2, float("nan"), 0.9, 0.1)
    write_edits(tmp_path, rows)
    assert checks.check_edit_report(tmp_path, 4)
    rows[1] = (1, "style", 1, 2, 0.9, 0.9, 0.1)   # image shows class 2
    write_edits(tmp_path, rows, images=False)
    assert checks.check_edit_report(tmp_path, 4)


@pytest.mark.parametrize("err,ok", [(0.0, True), (0.0499, True), (0.05, False),
                                    (float("nan"), False)])
def test_invert(tmp_path, err, ok):
    write_csv(tmp_path / "invert.csv",
              ["roundtrip_linf", "class_src", "class_edited"], [(err, 0, 1)])
    assert (checks.check_invert(tmp_path) == []) == ok


@pytest.mark.parametrize("delta0,ok", [(0.0, True), (1e-300, False)])
def test_svd_sweep(tmp_path, delta0, ok):
    strengths = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    rows = [("right", 0, s, 0, 0.9, delta0 if s == 0 else abs(s))
            for s in strengths]
    write_csv(tmp_path / "sweep.csv", ["side", "k", "s", "class", "style",
                                       "delta_l2"], rows)
    assert (checks.check_svd_sweep(tmp_path, 7) == []) == ok


@pytest.mark.parametrize("losses,lam,ok", [
    ([0.5, 0.4, 0.4], 0.95, True),
    ([0.5, 0.4, 0.41], 0.95, False),   # the loss increased
    ([0.5, 0.4, 0.3], 1.0, False),     # lambda reached the closed bound
])
def test_trajectory(tmp_path, losses, lam, ok):
    rows = [(i, v, 0.05, lam) for i, v in enumerate(losses)]
    write_csv(tmp_path / "trajectory.csv", ["step", "loss", "lambda_0",
                                            "lambda_1"], rows)
    assert (checks.check_trajectory(tmp_path, 2) == []) == ok


def test_patterns_are_the_documented_shapes():
    pats = checks.pattern_matrix().reshape(4, 8, 8)
    assert pats[0][3:5].all() and pats[0].sum() == 16          # hbar
    assert pats[1][:, 3:5].all() and pats[1].sum() == 16       # vbar
    assert pats[2][1].all() and pats[2][:, 6].all() and pats[2].sum() == 15
    assert all(pats[3][i, i] for i in range(8)) and pats[3].sum() == 15
    corr = pats.reshape(4, 64) @ pats.reshape(4, 64).T
    norms = np.sqrt(np.diag(corr))
    assert np.all(np.abs(corr / np.outer(norms, norms) - np.eye(4)) < 0.5)
    assert math.isclose(checks.ZERO_NOISE_L1, 0.7978845608, rel_tol=1e-9)
