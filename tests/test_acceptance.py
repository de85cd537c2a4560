"""Acceptance criteria.

Each test prints exactly one `CRITERION n: PASS/FAIL` line with the measured
quantities at the stated tolerance, then asserts it. Criteria 5 and 7-11
share one deterministic training run (the session-scoped trained_bundle
fixture); criterion 4 is defined before them so the gradient gate passes
before any training-dependent criterion is attempted.
"""

import math
import os
import time

import numpy as np

from gradient_gate import run_gate

from embedlab import cli
from embedlab import denoiser as dn
from embedlab import linalg as la
from embedlab import text_encoder as te
from embedlab import toyworld as tw
from embedlab import verify as vf
from embedlab.edit_ops import (diff_positions, mix_scale, mix_style,
                               mix_swap, soft_mix, soft_swap)
from embedlab.optimizer import OptConfig, make_context, optimize
from embedlab.pipeline import seed_noise
from embedlab.rng import Rng


def _report(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_diffusion_math_suite():
    start = time.time()
    post = vf.check_posterior_bayes(Rng(201))
    chain = vf.check_chain_composition_mc(Rng(202))
    elapsed = time.time() - start
    ok = post.passed and chain.passed and elapsed < 30.0
    _report(1, ok, f"posterior[{post.detail}] chain[{chain.detail}] "
                   f"runtime {elapsed:.1f}s < 30s")


def test_criterion_2_svd_suite():
    start = time.time()
    rng = Rng(203)
    worst = 0.0
    worst_cos = 1.0
    descending = True
    for _ in range(200):
        m = int(rng.randint(7)) + 2
        n = int(rng.randint(7)) + 2
        a = rng.normal((m, n))
        f = la.svd(a)
        worst = max(worst, float(np.max(np.abs(f.reconstruct() - a))))
        worst = max(worst, float(np.max(np.abs(f.u.T @ f.u - np.eye(m)))))
        worst = max(worst, float(np.max(np.abs(f.vt @ f.vt.T - np.eye(n)))))
        if np.any(np.diff(f.sigma) > 1e-12):
            descending = False
        res = vf.pca(a, centered=False)
        k = min(m, n)
        for j in range(k):
            if f.sigma[j] < 1e-9:
                continue
            c = res.components[:, j]
            r = f.vt[j, :]
            cos = abs(float(c @ r)) / (np.linalg.norm(c) * np.linalg.norm(r))
            worst_cos = min(worst_cos, cos)
    elapsed = time.time() - start
    ok = (worst < 1e-8 and descending and worst_cos > 1.0 - 1e-8
          and elapsed < 10.0)
    _report(2, ok, f"max_err {worst:.2e} < 1e-8, descending {descending}, "
                   f"min |cos(pca, V)| {worst_cos:.12f} > 1-1e-8, "
                   f"runtime {elapsed:.1f}s < 10s")


def test_criterion_3_encoder_mask_suite():
    start = time.time()
    vocab = te.default_vocabulary()
    cfg = te.EncoderConfig()
    pairs = [
        ("a photo of hbar dim", "a photo of hbar bright"),
        ("a photo of hbar dim", "a photo of vbar dim"),
        ("a photo of cross bright", "a photo of diag bright"),
        ("a photo of cross bright", "a photo of cross dim"),
        ("a photo of diag dim", "a photo of diag bright"),
        ("a photo of vbar bright", "a photo of vbar dim"),
        ("a photo of a", "a photo of photo"),
        ("hbar dim bright", "hbar dim dim"),
        ("a a a hbar", "a a a vbar"),
        ("of hbar", "of vbar"),
    ]
    causal_ok = True
    for draw in range(100):
        params = te.init_encoder_params(cfg, vocab.size, Rng(300 + draw))
        for s, t in pairs:
            ts = te.tokenize(vocab, s, cfg.max_len)
            tt = te.tokenize(vocab, t, cfg.max_len)
            first = next(i for i in range(cfg.max_len)
                         if ts.ids[i] != tt.ids[i])
            es = te.encode_batch(params, cfg, [ts.ids])[0]
            et = te.encode_batch(params, cfg, [tt.ids])[0]
            if not np.array_equal(es[:first], et[:first]):
                causal_ok = False
    # padding-information witness: PAD keys are never masked, so the PAD
    # rows change when the semantic tokens change
    params = te.init_encoder_params(cfg, vocab.size, Rng(299))
    ts = te.tokenize(vocab, "a photo of hbar dim", cfg.max_len)
    tt = te.tokenize(vocab, "a photo of vbar dim", cfg.max_len)
    es = te.encode_batch(params, cfg, [ts.ids])[0]
    et = te.encode_batch(params, cfg, [tt.ids])[0]
    pad_gap = float(np.max(np.abs(es[ts.semantic_len:]
                                  - et[tt.semantic_len:])))
    # BOS-row constancy: under the causal mask row 0 sees only BOS
    bos_ok = np.array_equal(es[0], et[0])
    elapsed = time.time() - start
    ok = causal_ok and pad_gap > 1e-6 and bos_ok and elapsed < 20.0
    _report(3, ok, f"causal prefix exact on 100 draws x 10 pairs: {causal_ok}, "
                   f"pad witness {pad_gap:.2e} > 1e-6, BOS constant {bos_ok}, "
                   f"runtime {elapsed:.1f}s < 20s")


def test_criterion_4_gradient_gate():
    checked, elapsed = run_gate()
    ok = checked > 40_000 and elapsed < 60.0
    _report(4, ok, f"{checked} parameters match central differences at 1e-4 "
                   f"relative (h=1e-5), runtime {elapsed:.1f}s < 60s")


def test_criterion_5_training(trained_bundle):
    b = trained_bundle
    prompts, _ = dn.training_prompts(b.world, b.vocab, b.enc_cfg.max_len)
    x_ts = np.stack([seed_noise(s) for s in range(200)])
    accs = {}
    for p in prompts:
        emb = b.embed(p)
        imgs = b.generate(emb, x_ts)
        k = b.class_of_text(p)
        accs[p] = float(np.mean(
            [tw.oracle_classify(b.world, im)[0] == k for im in imgs]))
    min_acc = min(accs.values())
    ok = (b.final_loss < 0.45 and min_acc >= 0.90
          and b.train_seconds < 600.0)
    _report(5, ok, f"final loss {b.final_loss:.3f} < 0.45, min prompt "
                   f"accuracy {min_acc:.3f} >= 0.90 over 200 seeds x 8 "
                   f"prompts, training {b.train_seconds:.0f}s < 600s")


def test_criterion_6_edit_op_identities():
    rng = Rng(400)
    L, D = 16, 32
    sem = 7
    e_s = rng.normal((L, D))
    e_t = rng.normal((L, D))
    checks = []
    checks.append(np.array_equal(mix_swap(e_s, e_t, set()), e_s))
    checks.append(np.array_equal(mix_swap(e_s, e_t, range(L)), e_t))
    one = mix_swap(e_s, e_t, {4})
    checks.append(np.array_equal(one[4], e_t[4])
                  and np.array_equal(np.delete(one, 4, 0),
                                     np.delete(e_s, 4, 0)))
    checks.append(np.array_equal(soft_swap(e_s, e_t, {4}, 1.0), e_s))
    checks.append(np.array_equal(soft_swap(e_s, e_t, {4}, 0.0),
                                 mix_swap(e_s, e_t, {4})))
    checks.append(np.array_equal(mix_scale(e_s, 5, 1.0), e_s))
    z = mix_scale(e_s, 5, 0.0)
    checks.append(np.all(z[5] == 0.0)
                  and np.array_equal(np.delete(z, 5, 0),
                                     np.delete(e_s, 5, 0)))
    checks.append(np.array_equal(mix_style(e_s, e_s, sem), e_s))
    st = mix_style(e_s, e_t, sem)
    checks.append(np.array_equal(st[sem - 1], e_s[sem - 1])
                  and np.array_equal(st[sem], e_t[sem]))
    checks.append(np.array_equal(soft_mix(e_s, e_t, np.ones(L)), e_s))
    checks.append(np.array_equal(soft_mix(e_s, e_t, np.zeros(L)), e_t))
    lam = np.ones(L)
    lam[[4, 9]] = 0.0
    checks.append(np.array_equal(soft_mix(e_s, e_t, lam),
                                 mix_swap(e_s, e_t, {4, 9})))
    ok = all(checks)
    _report(6, ok, f"{sum(checks)}/{len(checks)} bitwise edit-op identities")


def _sign_test_p(wins: int, n: int) -> float:
    """One-sided exact binomial tail P[X >= wins], X ~ Bin(n, 1/2)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n


def test_criterion_7_swap_preserves_background(trained_bundle):
    b = trained_bundle
    src, tgt = "a photo of hbar bright", "a photo of vbar bright"
    t_s, t_t = b.tokens(src), b.tokens(tgt)
    e_s, e_t = b.embed(src), b.embed(tgt)
    e_swap = mix_swap(e_s, e_t, diff_positions(t_s, t_t))
    k_t = b.class_of_text(tgt)
    bg = tw.background_mask(b.world, b.class_of_text(src), k_t)
    n = 100
    x_ts = np.stack([seed_noise(s) for s in range(n)])
    i_s = b.generate(e_s, x_ts)
    i_sw = b.generate(e_swap, x_ts)
    i_tr = b.generate(e_t, x_ts)
    conv = sum(tw.oracle_classify(b.world, im)[0] == k_t for im in i_sw)
    l_sw = np.sum((i_sw - i_s)[:, bg] ** 2, axis=1)
    l_tr = np.sum((i_tr - i_s)[:, bg] ** 2, axis=1)
    wins = int(np.sum(l_sw < l_tr))
    ties = int(np.sum(l_sw == l_tr))
    p = _sign_test_p(wins, n - ties)
    ok = conv >= 80 and p < 0.05
    _report(7, ok, f"swap conversion {conv}/100 >= 80, background sign test "
                   f"swap wins {wins}/{n - ties}, one-sided p {p:.2e} < 0.05")


def test_criterion_8_fader_monotone(trained_bundle):
    b = trained_bundle
    e = b.embed("a photo of hbar bright")
    style_pos = 5  # 0-based row of the style word
    x_ts = np.stack([seed_noise(s) for s in range(100)])
    means = []
    for c in (0.5, 1.0, 1.5, 2.0):
        imgs = b.generate(mix_scale(e, style_pos, c), x_ts)
        means.append(float(np.mean(
            [tw.oracle_style(b.world, im, 0) for im in imgs])))
    ok = all(means[i] <= means[i + 1] for i in range(len(means) - 1))
    _report(8, ok, "mean oracle_style monotone non-decreasing over "
                   "c in {0.5,1,1.5,2}, 100 seeds per c: "
            + ", ".join(f"{m:.3f}" for m in means))


def test_criterion_9_mask_then_generate(trained_bundle):
    b = trained_bundle
    prompt = "a photo of hbar bright"
    e = b.embed(prompt)
    sem = b.tokens(prompt).semantic_len
    x_ts = np.stack([seed_noise(s) for s in range(100)])
    base = b.generate(e, x_ts)
    base_cls = [tw.oracle_classify(b.world, im)[0] for im in base]
    k = b.class_of_text(prompt)

    pad_allowed = np.ones(b.enc_cfg.max_len, dtype=bool)
    pad_allowed[sem:] = False
    pad_imgs = b.generate(e, x_ts, mask=dn.AttnMask(pad_allowed))
    keep = float(np.mean([tw.oracle_classify(b.world, im)[0] == c
                          for im, c in zip(pad_imgs, base_cls)]))

    sem_allowed = np.ones(b.enc_cfg.max_len, dtype=bool)
    sem_allowed[:sem] = False  # prefix mask over the full semantic span
    sem_imgs = b.generate(e, x_ts, mask=dn.AttnMask(sem_allowed))
    base_match = float(np.mean([c == k for c in base_cls]))
    sem_match = float(np.mean([tw.oracle_classify(b.world, im)[0] == k
                               for im in sem_imgs]))
    drop = base_match - sem_match
    ok = keep >= 0.70 and drop >= 0.20
    _report(9, ok, f"PAD-tail mask class kept {keep:.2f} >= 0.70, "
                   f"semantic-span mask drop {drop:.2f} >= 0.20 "
                   f"({base_match:.2f} -> {sem_match:.2f}), 100 seeds")


def test_criterion_10_lambda_optimization(trained_bundle):
    b = trained_bundle
    cfg = OptConfig(steps=150, seed=0)
    ctx = make_context(b, "a photo of hbar bright",
                       "a photo of vbar bright", cfg)
    params, traj = optimize(ctx, cfg)
    lam = params.lam()
    sem = b.tokens("a photo of hbar bright").semantic_len
    diff = sorted(ctx.diff)
    other = [i for i in range(sem) if i not in ctx.diff]
    gap = float(np.mean(lam[other]) - np.mean(lam[diff]))
    losses = [l for _, l, _ in traj]
    non_increasing = all(losses[i + 1] <= losses[i]
                         for i in range(len(losses) - 1))
    ok = gap >= 0.2 and non_increasing
    _report(10, ok, f"mean lambda diff {np.mean(lam[diff]):.3f} vs other "
                    f"semantic {np.mean(lam[other]):.3f}, gap {gap:.3f} "
                    f">= 0.2 after 150 steps, trajectory non-increasing "
                    f"{non_increasing}")


def test_criterion_11_inversion_round_trip(trained_bundle):
    b = trained_bundle
    rng = Rng(2024)
    samples = []
    for i in range(100):
        k = int(rng.split(i).randint(4, 1)[0])
        sv = (0.4, 1.0)[int(rng.split(1000 + i).randint(2, 1)[0])]
        samples.append(tw.render(b.world, k, sv, rng.split(2000 + i)))
    # one inversion and one regeneration, each sample with its own prompt
    # embedding (G = 100)
    embs = np.stack([b.embed(s.prompt) for s in samples])
    x0 = np.stack([s.x0 for s in samples])
    rec = b.regenerate(embs, b.invert(embs, x0))
    errs = np.max(np.abs(rec - x0), axis=1)
    ok_count = int(np.sum(errs < 0.05))
    worst = float(errs.max())
    ok = ok_count >= 90
    _report(11, ok, f"round-trip Linf < 0.05 on {ok_count}/100 rendered "
                    f"samples (>= 90), worst {worst:.4f}")


def _run_twice(argv_builder, tmp_path, tag):
    outs = []
    for run in range(2):
        out = tmp_path / f"{tag}{run}"
        assert cli.main(argv_builder(str(out))) == 0
        files = {}
        for name in sorted(os.listdir(out)):
            with open(out / name, "rb") as f:
                files[name] = f.read()
        outs.append(files)
    return outs[0] == outs[1] and len(outs[0]) > 0


def test_criterion_12_cli_determinism(tmp_path, untrained_bundle):
    ckpt = tmp_path / "model.ckpt"
    untrained_bundle.save(ckpt)
    same_verify = _run_twice(
        lambda o: ["verify", "--out", o], tmp_path, "v")
    same_edit = _run_twice(
        lambda o: ["edit", "--ckpt", str(ckpt), "--out", o, "--seeds", "4"],
        tmp_path, "e")
    same_opt = _run_twice(
        lambda o: ["opt-lambda", "--ckpt", str(ckpt), "--out", o,
                   "--steps", "3"], tmp_path, "o")
    ok = same_verify and same_edit and same_opt
    _report(12, ok, f"byte-identical double runs: verify {same_verify}, "
                    f"edit {same_edit}, opt-lambda {same_opt}")
