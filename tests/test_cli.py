import dataclasses
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import embedlab
from embedlab import cli
from embedlab import denoiser as dn
from embedlab import toyworld as tw
from embedlab.diffusion import MAX_T
from embedlab.optimizer import OptConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(embedlab.__file__)))


def _read_all(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


def test_gen_data_deterministic_and_parsable(tmp_path, capsys):
    d1 = str(tmp_path / "a")
    d2 = str(tmp_path / "b")
    assert cli.main(["gen-data", "--out", d1, "--n", "8"]) == 0
    assert cli.main(["gen-data", "--out", d2, "--n", "8"]) == 0
    f1, f2 = _read_all(d1), _read_all(d2)
    assert set(f1) == set(f2)
    for name in f1:
        assert f1[name] == f2[name], name
    data = np.loadtxt(os.path.join(d1, "dataset.csv"),
                      delimiter=",", skiprows=1)
    assert data.shape == (8, 66)
    # the style column is drawn from the world's brightness interval
    assert np.all((tw.STYLE_LO < data[:, 1]) & (data[:, 1] < tw.STYLE_HI))
    manifest = open(os.path.join(d1, "manifest.txt")).read()
    assert "command=gen-data" in manifest
    assert "config_hash=" in manifest
    assert "n=8" in manifest
    lines = manifest.splitlines()
    assert f"numpy={np.__version__}" in lines
    assert "python={}.{}.{}".format(*sys.version_info[:3]) in lines
    _rejects_count(["gen-data", "--out", d1, "--n", "0"], "--n", capsys)


def test_parser_built_once_without_leaks(tmp_path):
    """main() reuses one parser; each call parses only its own arguments."""
    assert cli.build_parser() is cli.build_parser()
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["gen-data", "--out", d1, "--n", "3", "--seed", "4"]) == 0
    args = cli.build_parser().parse_args(["edit", "--seeds", "2"])
    assert args.seeds == 2 and args.recipe == "swap"
    assert not hasattr(args, "n")
    assert cli.main(["gen-data", "--out", d2]) == 0
    manifest = open(os.path.join(d2, "manifest.txt")).read().splitlines()
    assert "n=32" in manifest and "seed=0" in manifest


def test_exit_codes(tmp_path):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["gen-data", "--n", "x"]) == 1
    assert cli.main(["sample", "--ckpt", "/does/not/exist",
                     "--out", str(tmp_path / "s")]) == 2


def test_no_command_reads_a_config_file(tmp_path, capsys):
    """Flags are the only way to configure a command: --config is a usage
    error that exits before any output directory is made."""
    for name in cli.COMMANDS:
        out = tmp_path / name
        assert cli.main([name, "--config", "x", "--out", str(out)]) == 1
        assert "--config" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_flag_prefix_is_a_usage_error(tmp_path, capsys):
    """Flags parse only when spelled in full: --ste is not --steps."""
    out = tmp_path / "t"
    capsys.readouterr()
    assert cli.main(["train", "--ste", "5", "--batch", "3",
                     "--out", str(out)]) == 1
    assert "--ste" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_importing_the_cli_leaves_verify_unloaded():
    """verify is imported by its command only, so the checks add nothing to
    every other command's start-up."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, embedlab.cli; "
         "print('embedlab.verify' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout == "False\n", proc.stderr


def _manifest(argv):
    """The bytes of the manifest in argv's --out directory, or None."""
    path = os.path.join(argv[argv.index("--out") + 1], "manifest.txt")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def _rejects_count(argv, flag, capsys) -> None:
    """argv exits 2 with a message naming flag, before writing a manifest."""
    before = _manifest(argv)
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err
    assert _manifest(argv) == before


def test_sample_outputs(tmp_path, ckpt, capsys):
    d = str(tmp_path / "s")
    assert cli.main(["sample", "--ckpt", ckpt, "--out", d, "--n", "2",
                     "--prompt", "a photo of vbar dim"]) == 0
    assert os.path.exists(os.path.join(d, "gen_0.pgm"))
    rows = open(os.path.join(d, "metrics.csv")).read().splitlines()
    assert rows[0] == "seed,class,score,style"
    assert len(rows) == 3
    _rejects_count(["sample", "--ckpt", ckpt, "--out", d, "--n", "0"],
                   "--n", capsys)
    _rejects_count(["sample", "--ckpt", ckpt, "--out", d, "--mode", "euler"],
                   "--mode", capsys)


def test_sample_rerun_rewrites_outputs(tmp_path, ckpt):
    """A smaller run into a used directory leaves the same report bytes as
    into a fresh one."""
    used, fresh = str(tmp_path / "used"), str(tmp_path / "fresh")
    second = ["sample", "--ckpt", ckpt, "--n", "1",
              "--prompt", "a photo of vbar dim"]
    assert cli.main(["sample", "--ckpt", ckpt, "--out", used, "--n", "3",
                     "--prompt", "a photo of cross bright"]) == 0
    assert cli.main(second + ["--out", used]) == 0
    assert cli.main(second + ["--out", fresh]) == 0
    for name in ("metrics.csv", "manifest.txt", "gen_0.pgm"):
        with open(os.path.join(used, name), "rb") as a, \
                open(os.path.join(fresh, name), "rb") as b:
            assert a.read() == b.read(), name


def test_sample_ddpm_rows_match_single_seed_runs(tmp_path, ckpt):
    """A DDPM run over several seeds writes, for each seed, the image that a
    one-image run at that seed writes: every row draws its own seed's
    noise."""
    base = ["sample", "--ckpt", ckpt, "--mode", "ddpm"]
    many = str(tmp_path / "many")
    assert cli.main(base + ["--out", many, "--seed", "-2", "--n", "3"]) == 0
    for seed in (-2, -1, 0):
        one = str(tmp_path / f"one{seed}")
        assert cli.main(base + ["--out", one, "--seed", str(seed),
                                "--n", "1"]) == 0
        name = f"gen_{seed}.pgm"
        with open(os.path.join(many, name), "rb") as a, \
                open(os.path.join(one, name), "rb") as b:
            assert a.read() == b.read(), name


def test_sample_rejects_truncated_checkpoint(tmp_path):
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(b"EMB1\x01\x00")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "embedlab.cli", "sample", "--ckpt", str(bad),
         "--out", str(tmp_path / "s")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "truncated" in proc.stderr


def test_sample_rejects_non_finite_weights(tmp_path, untrained_bundle, capsys):
    path = _tampered_ckpt(tmp_path, untrained_bundle, "den.w2",
                          _set((3, 5), np.nan))
    capsys.readouterr()
    assert cli.main(["sample", "--ckpt", path,
                     "--out", str(tmp_path / "s")]) == 2
    assert "den.w2" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "s" / "metrics.csv")


def _tampered_ckpt(tmp_path, bundle, name, edit):
    """bundle's checkpoint with tensor name replaced by edit(tensor)."""
    path = tmp_path / "tampered.ckpt"
    bundle.save(path)
    tensors = dn.load_checkpoint(path)
    tensors[name] = edit(tensors[name])
    dn.save_checkpoint(path, tensors)
    return str(path)


def _set(i, value):
    def edit(arr):
        arr[i] = value
        return arr
    return edit


def test_sample_rejects_attention_width_mismatch(tmp_path, untrained_bundle,
                                                 capsys):
    # d_a is the attention scale's width; the weights were made with 64
    path = _tampered_ckpt(tmp_path, untrained_bundle, "meta.den_cfg",
                          _set(2, 32))
    capsys.readouterr()
    assert cli.main(["sample", "--ckpt", path,
                     "--out", str(tmp_path / "s")]) == 2
    assert "'den.wk' has shape (32, 64)" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "s" / "metrics.csv")


def test_sample_rejects_zero_head_count(tmp_path, untrained_bundle, capsys):
    path = _tampered_ckpt(tmp_path, untrained_bundle, "meta.enc_cfg",
                          _set(3, 0))
    capsys.readouterr()
    assert cli.main(["sample", "--ckpt", path,
                     "--out", str(tmp_path / "s")]) == 2
    assert "meta.enc_cfg" in capsys.readouterr().err


@pytest.mark.parametrize("name,edit,message", [
    ("meta.schedule", _set(0, 2.5), "T must be a positive integer, got 2.5"),
    ("meta.schedule", _set(0, 1e15), f"T must be at most {MAX_T}"),
    ("enc.tok_emb", lambda e: np.vstack([e, e[:1]]),
     "embeds 13 tokens, the vocabulary has 12"),
])
def test_sample_rejects_a_model_it_cannot_run(tmp_path, untrained_bundle,
                                              capsys, name, edit, message):
    path = _tampered_ckpt(tmp_path, untrained_bundle, name, edit)
    assert cli.main(["sample", "--ckpt", path,
                     "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert f"'{name}'" in err and message in err
    assert not os.path.exists(tmp_path / "s" / "manifest.txt")


# the x1e306 weights overflow on purpose: the test checks that exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_chain_output_exits_3(tmp_path, untrained_bundle, capsys):
    # finite weights that overflow while sampling: the load check passes
    path = _tampered_ckpt(tmp_path, untrained_bundle, "den.w2",
                          lambda w: w * 1e306)
    capsys.readouterr()
    assert cli.main(["sample", "--ckpt", path,
                     "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert "generate: non-finite output in row 0" in err
    assert not os.path.exists(tmp_path / "s" / "metrics.csv")
    assert cli.main(["invert", "--ckpt", path,
                     "--out", str(tmp_path / "i")]) == 3
    assert "non-finite" in capsys.readouterr().err


# lr 1e300 overflows the weights on purpose: the test checks that exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_loss_exits_3(tmp_path, capsys):
    assert cli.main(["train", "--steps", "4", "--lr", "1e300",
                     "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: train: non-finite loss at step" in err
    assert not os.path.exists(tmp_path / "t" / "model.ckpt")


def test_sample_rejects_unknown_word(tmp_path, ckpt):
    assert cli.main(["sample", "--ckpt", ckpt, "--out", str(tmp_path / "s"),
                     "--prompt", "a photo of cat"]) == 2


def test_edit_deterministic_outputs(tmp_path, ckpt):
    d1 = str(tmp_path / "e1")
    d2 = str(tmp_path / "e2")
    args = ["edit", "--ckpt", ckpt, "--recipe", "swap",
            "--from", "a photo of hbar bright",
            "--to", "a photo of vbar bright", "--seeds", "3"]
    assert cli.main(args + ["--out", d1]) == 0
    assert cli.main(args + ["--out", d2]) == 0
    f1, f2 = _read_all(d1), _read_all(d2)
    assert set(f1) == set(f2)
    for name in f1:
        assert f1[name] == f2[name], name
    assert "edits.csv" in f1 and "src_0.pgm" in f1 and "edit_0.pgm" in f1


def test_edit_positions_one_based(tmp_path, ckpt, capsys):
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--positions", "0"], "--positions", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "scale", "--scale-pos", "0"],
                   "--scale-pos", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "mask", "--mask-from", "0", "--mask-to", "2"],
                   "--mask-from", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--seeds", "0"], "--seeds", capsys)
    # past the 16 rows of an embedding
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--positions", "99"], "--positions", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "soft_swap", "--positions", "17"],
                   "--positions", capsys)
    # an empty position set, and a repeated position
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--to", "a photo of hbar bright"], "--from and --to", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "soft_swap", "--positions", ","],
                   "--positions", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--positions", "5,5"], "--positions '5,5'", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "scale", "--scale-pos", "99"],
                   "--scale-pos 99", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "mask", "--mask-from", "2", "--mask-to", "99"],
                   "--mask-to 99", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "mask", "--mask-from", "17",
                    "--mask-to", "17"], "--mask-to 17", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "mask", "--mask-from", "2", "--mask-to", "3",
                    "--mask-mode", "foo"], "--mask-mode", capsys)
    # an exclude mask over every row leaves nothing to attend to
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "mask", "--mask-from", "1", "--mask-to", "16"],
                   "--mask-from 1", capsys)
    # prompts without a class word
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--from", "a photo of bright"],
                   "no class word in 'a photo of bright'", capsys)
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "style", "--to", "a photo"],
                   "no class word in 'a photo'", capsys)
    # the style recipe tokenizes --from for its cut
    _rejects_count(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                    "--recipe", "style", "--from", "a photo of cat dim"],
                   "unknown word 'cat'", capsys)
    assert not os.path.exists(tmp_path / "e")
    # the last row is still in range, and the reports name it as the flags do
    for flags, label in ((["--recipe", "scale", "--scale-pos", "16"],
                          "scale[16x1.0]"),
                         (["--recipe", "mask", "--mask-from", "16",
                           "--mask-to", "16"], "mask[16-16:exclude]"),
                         (["--positions", "5"], "swap[5]")):
        assert cli.main(["edit", "--ckpt", ckpt, "--out", str(tmp_path / "e"),
                         "--seeds", "1", *flags]) == 0
        assert capsys.readouterr().out.startswith(f"{label}: ")
        rows = open(tmp_path / "e" / "edits.csv").read().splitlines()
        assert rows[1].split(",")[1] == label


def test_mask_sweep_families(tmp_path, ckpt, capsys):
    d = str(tmp_path / "m")
    assert cli.main(["mask-sweep", "--ckpt", ckpt, "--out", d,
                     "--seeds", "4"]) == 0
    rows = open(os.path.join(d, "mask_sweep.csv")).read().splitlines()
    labels = [r.split(",")[0] for r in rows[1:]]
    assert "none" in labels
    assert "single_M1" in labels and "single_M16" in labels
    assert "prefix_M1-1" in labels and "prefix_M1-15" in labels
    assert "suffix_M2-16" in labels and "suffix_M16-16" in labels
    assert len(labels) == 1 + 16 + 15 + 15
    for r in rows[1:]:
        _, keep, lo, hi = r.split(",")
        assert 0.0 <= float(lo) <= float(keep) <= float(hi) <= 1.0
    _rejects_count(["mask-sweep", "--ckpt", ckpt, "--out", d, "--seeds", "0"],
                   "--seeds", capsys)


def test_svd_dirs_outputs(tmp_path, ckpt, capsys):
    _rejects_count(["svd-dirs", "--ckpt", ckpt, "--out", str(tmp_path / "x"),
                    "--side", "diagonal"], "--side", capsys)
    assert not os.path.exists(tmp_path / "x")
    d = str(tmp_path / "sv")
    assert cli.main(["svd-dirs", "--ckpt", ckpt, "--out", d, "--k", "1"]) == 0
    rows = open(os.path.join(d, "sweep.csv")).read().splitlines()
    assert len(rows) == 8  # header + 7 default strengths
    _rejects_count(["svd-dirs", "--ckpt", ckpt, "--out", d,
                    "--side", "diagonal"], "--side", capsys)
    _rejects_count(["svd-dirs", "--ckpt", ckpt, "--out", d,
                    "--prompt", "a photo of cat"], "unknown word 'cat'", capsys)


def test_svd_dirs_rejects_out_of_range_k(tmp_path, ckpt, capsys):
    # a 16 x 32 embedding has singular indices 0..15
    for k in ("99", "-1", "16"):
        _rejects_count(["svd-dirs", "--ckpt", ckpt, "--out", str(tmp_path),
                        "--k", k], f"--k {k} outside", capsys)
    assert not os.path.exists(tmp_path / "sweep.csv")
    assert not os.path.exists(tmp_path / "manifest.txt")
    assert cli.main(["svd-dirs", "--ckpt", ckpt, "--out", str(tmp_path),
                     "--k", "15", "--side", "left"]) == 0


def test_opt_lambda_runs(tmp_path, ckpt, capsys):
    d = str(tmp_path / "o")
    assert cli.main(["opt-lambda", "--ckpt", ckpt, "--out", d,
                     "--steps", "2"]) == 0
    rows = open(os.path.join(d, "trajectory.csv")).read().splitlines()
    assert len(rows) == 4
    losses = [float(r.split(",")[1]) for r in rows[1:]]
    assert losses[2] <= losses[0]
    for steps in ("0", "-1"):
        _rejects_count(["opt-lambda", "--ckpt", ckpt, "--out", d,
                        "--steps", steps], "--steps", capsys)
    # identical prompts leave no position to optimize
    same = "a photo of hbar bright"
    _rejects_count(["opt-lambda", "--ckpt", ckpt, "--out", str(tmp_path / "o2"),
                    "--from", same, "--to", same, "--steps", "2"],
                   "--from and --to", capsys)
    assert not os.path.exists(os.path.join(tmp_path, "o2"))


def test_float_flags_checked_before_manifest(tmp_path, ckpt, capsys):
    """A NaN, infinite or out-of-range float flag exits 2 naming the flag,
    before any output is written."""
    d = str(tmp_path / "f")
    base = ["--ckpt", ckpt, "--out", d]
    for gamma in ("nan", "inf", "-1"):
        _rejects_count(["opt-lambda", "--gamma", gamma, "--steps", "1"] + base,
                       "--gamma", capsys)
    for style in ("nan", "-3", "inf", "0", "1.5"):
        _rejects_count(["invert", "--style", style] + base, "--style", capsys)
    for scale in ("nan", "inf", "-inf"):
        _rejects_count(["edit", "--recipe", "scale", "--scale-pos", "6",
                        f"--scale={scale}"] + base, "--scale", capsys)
    for weight in ("2.5", "-0.5", "nan"):
        _rejects_count(["edit", "--recipe", "soft_swap", "--weight", weight]
                       + base, "--weight", capsys)
    assert not os.path.exists(d)


def test_invert_runs(tmp_path, ckpt):
    d = str(tmp_path / "i")
    assert cli.main(["invert", "--ckpt", ckpt, "--out", d]) == 0
    row = open(os.path.join(d, "invert.csv")).read().splitlines()[1]
    err = float(row.split(",")[0])
    assert np.isfinite(err)
    for name in ("real.pgm", "recon.pgm", "edited.pgm"):
        assert os.path.exists(os.path.join(d, name))


def test_invert_bytes_independent_of_blas_threads(tmp_path, ckpt):
    """The invert command writes the same bytes with one and with two BLAS
    threads, each run in its own process."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"inv{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-m", "embedlab.cli", "invert",
                        "--ckpt", ckpt, "--out", str(out)], check=True,
                       capture_output=True, env=env, timeout=300)
        outs.append(_read_all(out))
    assert outs[0] == outs[1]
    assert {"invert.csv", "real.pgm", "recon.pgm", "edited.pgm"} <= set(outs[0])


def test_verify_command(tmp_path):
    d = str(tmp_path / "v")
    assert cli.main(["verify", "--out", d]) == 0
    report = open(os.path.join(d, "verify.txt")).read()
    assert "checks passed" in report
    assert "FAIL" not in report


def test_train_command_small(tmp_path, capsys):
    d = str(tmp_path / "t")
    assert cli.main(["train", "--out", d, "--steps", "30", "--T", "10",
                     "--batch-size", "8"]) == 0
    assert os.path.exists(os.path.join(d, "model.ckpt"))
    rows = open(os.path.join(d, "loss.csv")).read().splitlines()
    assert rows[0] == "step,loss"
    # one progress line per logged step: here only the last one
    out = capsys.readouterr().out
    assert re.search(r"^step 30/30 loss \d+\.\d{4} lr \S+ "
                     r"grad_norm \d\.\d{3}e[+-]\d{2} steps/s \d+\.\d$",
                     out, re.M), out
    _rejects_count(["train", "--out", str(tmp_path / "t0"), "--steps", "0"],
                   "--steps", capsys)
    _rejects_count(["train", "--out", str(tmp_path / "t0"),
                    "--batch-size", "0"], "--batch-size", capsys)
    _rejects_count(["train", "--out", str(tmp_path / "t0"), "--T", "0"],
                   "--T", capsys)
    _rejects_count(["train", "--out", str(tmp_path / "t0"),
                    "--T", str(MAX_T + 1)],
                   f"--T, --beta-start and --beta-end: T must be at most "
                   f"{MAX_T}", capsys)
    for start, end in (("0", "0.2"), ("0.3", "0.2"), ("1e-3", "1"),
                       ("nan", "0.2")):
        _rejects_count(["train", "--out", str(tmp_path / "t0"),
                        "--beta-start", start, "--beta-end", end],
                       "--beta-start and --beta-end", capsys)
    assert not os.path.exists(tmp_path / "t0")
    # the produced checkpoint loads back into a usable bundle
    d2 = str(tmp_path / "s")
    assert cli.main(["sample", "--ckpt", os.path.join(d, "model.ckpt"),
                     "--out", d2, "--n", "1"]) == 0


def test_train_rejects_bad_lr(tmp_path, capsys):
    for lr in ("nan", "inf", "0", "-1"):
        d = tmp_path / f"t{lr}"
        _rejects_count(["train", "--out", str(d), "--steps", "1",
                        "--lr", lr], "--lr", capsys)
        assert not os.path.exists(d)


class _Built(Exception):
    """Stops a command once it has built its config."""


def test_every_config_field_comes_from_a_flag(tmp_path, ckpt, monkeypatch):
    """With every flag of train and opt-lambda off its default, no field of
    the TrainConfig or OptConfig the command builds keeps its default."""
    flags = {
        "train": {"out": str(tmp_path / "t"), "seed": "11", "steps": "3",
                  "batch-size": "5", "lr": "2e-3", "T": "20",
                  "beta-start": "2e-3", "beta-end": "0.1"},
        "opt-lambda": {"out": str(tmp_path / "o"), "ckpt": ckpt,
                       "from": "a photo of cross dim",
                       "to": "a photo of diag dim", "steps": "3",
                       "seed": "5", "gamma": "0.5"},
    }
    # the call that receives each command's config
    calls = {"train": (dn, "train", dn.TrainConfig),
             "opt-lambda": (cli, "optimize", OptConfig)}
    for command, values in flags.items():
        options = cli.COMMANDS[command][1]
        assert set(values) == set(options)
        for key, value in values.items():
            assert type(options[key][0])(value) != options[key][0], key
        module, name, cfg_type = calls[command]
        built = []

        def record(*args, **kwargs):
            built.extend(a for a in args if isinstance(a, cfg_type))
            raise _Built
        monkeypatch.setattr(module, name, record)
        argv = [command] + [a for k, v in values.items() for a in (f"--{k}", v)]
        with pytest.raises(_Built):
            cli.main(argv)
        cfg, = built
        for field in dataclasses.fields(cfg):
            assert getattr(cfg, field.name) != field.default, \
                (command, field.name)


def test_train_bytes_pinned(tmp_path):
    """200 seed-7 steps write these exact checkpoint bytes.

    The bytes do not depend on the BLAS thread count (see
    test_training_is_deterministic), so any change here is a change to the
    training arithmetic. Re-pin only together with the benchmark's trained
    checkpoint, perfbench/data/trained-seed7.ckpt, which such a change
    also makes stale.
    """
    d = str(tmp_path / "t")
    assert cli.main(["train", "--out", d, "--steps", "200", "--seed", "7"]) == 0
    with open(os.path.join(d, "model.ckpt"), "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert digest == ("d7b3610a70ded69b844199c37a897a6b"
                      "354e2fba0fa06631c452d93dbeabfe00")
