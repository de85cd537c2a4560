import numpy as np
import pytest

from embedlab import cli
from embedlab import edit_ops as eo
from embedlab import text_encoder as te
from embedlab.rng import Rng


@pytest.fixture()
def pair():
    rng = Rng(40)
    e_s = te.TextEmbedding(data=rng.normal((8, 5)), semantic_len=5)
    e_t = te.TextEmbedding(data=rng.normal((8, 5)), semantic_len=5)
    return e_s, e_t


def test_swap_identity_and_boundaries(pair):
    e_s, e_t = pair
    assert np.array_equal(eo.mix_swap(e_s, e_t, ()).data, e_s.data)
    out = eo.mix_swap(e_s, e_t, (0, 7))  # first and last rows
    assert np.array_equal(out.data[0], e_t.data[0])
    assert np.array_equal(out.data[7], e_t.data[7])
    assert np.array_equal(out.data[1:7], e_s.data[1:7])
    for bad in ((8,), (2, -1)):
        with pytest.raises(ValueError):
            eo.mix_swap(e_s, e_t, bad)


def test_soft_swap_endpoints_and_range(pair):
    e_s, e_t = pair
    assert np.array_equal(eo.soft_swap(e_s, e_t, (3,), 1.0).data, e_s.data)
    assert np.array_equal(eo.soft_swap(e_s, e_t, (3,), 0.0).data,
                          eo.mix_swap(e_s, e_t, (3,)).data)
    with pytest.raises(ValueError):
        eo.soft_swap(e_s, e_t, (3,), 1.5)
    with pytest.raises(ValueError):
        eo.soft_swap(e_s, e_t, (8,), 0.5)


def test_scale_identity_and_effect(pair):
    e_s, _ = pair
    assert np.array_equal(eo.mix_scale(e_s, 2, 1.0).data, e_s.data)
    out = eo.mix_scale(e_s, 2, 2.0)
    assert np.array_equal(out.data[2], 2.0 * e_s.data[2])
    assert np.array_equal(np.delete(out.data, 2, axis=0),
                          np.delete(e_s.data, 2, axis=0))
    with pytest.raises(ValueError):
        eo.mix_scale(e_s, 99, 1.0)


def test_style_swap_boundaries(pair):
    e_s, e_t = pair
    inc = eo.mix_style(e_s, e_t)
    assert np.array_equal(inc.data[:5], e_s.data[:5])
    assert np.array_equal(inc.data[5:], e_t.data[5:])


def test_soft_mix_identities(pair):
    e_s, e_t = pair
    assert np.array_equal(eo.soft_mix(e_s, e_t, np.ones(8)).data, e_s.data)
    assert np.array_equal(eo.soft_mix(e_s, e_t, np.zeros(8)).data, e_t.data)
    lam = np.ones(8)
    lam[[2, 5]] = 0.0
    assert np.array_equal(eo.soft_mix(e_s, e_t, lam).data,
                          eo.mix_swap(e_s, e_t, (2, 5)).data)
    with pytest.raises(ValueError):
        eo.soft_mix(e_s, e_t, np.full(8, 1.5))
    with pytest.raises(ValueError):
        eo.soft_mix(e_s, e_t, np.ones(7))


def test_diff_positions():
    vocab = te.default_vocabulary()
    t_s = te.tokenize(vocab, "a photo of hbar dim", 16)
    t_t = te.tokenize(vocab, "a photo of vbar dim", 16)
    assert eo.diff_positions(t_s, t_t) == {4}
    with pytest.raises(ValueError):
        eo.diff_positions(t_s, te.tokenize(vocab, "a photo of vbar dim", 12))


def _recipe(bundle, **flags):
    """cli._build_recipe's (label, edit) for the edit defaults plus flags,
    each flag spelled as its option with '_' for '-'."""
    cfg = {key: default for key, (default, _) in
           cli.COMMANDS["edit"][1].items()}
    cfg.update({key.replace("_", "-"): v for key, v in flags.items()})
    return cli._build_recipe(cfg, bundle)


def test_mask_recipe_modes(untrained_bundle):
    """The mask recipe hides rows from attention or zeroes them, and
    zero_rows zeroes exactly rows i..j."""
    rng = Rng(41)
    e_s = te.TextEmbedding(data=rng.normal((16, 5)), semantic_len=5)
    e_t = te.TextEmbedding(data=rng.normal((16, 5)), semantic_len=5)
    _, edit = _recipe(untrained_bundle, recipe="mask", mask_from=3, mask_to=5)
    out, mask = edit(e_s, e_t)
    assert out is e_s
    assert np.array_equal(mask.allowed, [True, True] + [False] * 3
                          + [True] * 11)
    _, edit = _recipe(untrained_bundle, recipe="mask", mask_from=3, mask_to=5,
                      mask_mode="zero")
    out, mask = edit(e_s, e_t)
    assert mask is None
    assert np.array_equal(out.data, eo.zero_rows(e_s, 2, 4).data)
    assert np.all(out.data[2:5] == 0.0)
    assert np.array_equal(np.delete(out.data, [2, 3, 4], axis=0),
                          np.delete(e_s.data, [2, 3, 4], axis=0))
    for i, j in ((4, 2), (-1, 2), (3, 16)):
        with pytest.raises(ValueError):
            eo.zero_rows(e_s, i, j)
    with pytest.raises(cli.ConfigError):
        _recipe(untrained_bundle, recipe="nope")


def test_recipe_labels(untrained_bundle):
    """Labels name rows 1-based, as the CLI flags do, in the flags' order."""
    for flags, label in (
            ({"recipe": "swap", "positions": "5"}, "swap[5]"),
            ({"recipe": "soft_swap", "positions": "5"}, "soft_swap[5:w=0.5]"),
            ({"recipe": "soft_swap", "positions": "5,6", "weight": 0.25},
             "soft_swap[5,6:w=0.25]"),
            ({"recipe": "soft_swap", "positions": "6,5", "weight": 0.75},
             "soft_swap[6,5:w=0.75]"),
            ({"recipe": "scale", "scale_pos": 6, "scale": 2.0},
             "scale[6x2.0]"),
            ({"recipe": "style"}, "style"),
            ({"recipe": "mask", "mask_from": 2, "mask_to": 4},
             "mask[2-4:exclude]"),
            ({"recipe": "mask", "mask_from": 2, "mask_to": 4,
              "mask_mode": "zero"}, "mask[2-4:zero]")):
        assert _recipe(untrained_bundle, **flags)[0] == label
    # without --positions, a swap takes the rows where the prompts differ
    assert _recipe(untrained_bundle, recipe="swap")[0] == "swap[5]"


def test_run_edit_shared_seed_pairing(untrained_bundle):
    """Identity edits with a shared x_T reproduce the source bitwise, and
    a masked edit leaves its source block unmasked."""
    src, dst = "a photo of hbar bright", "a photo of vbar bright"
    _, masked_edit = _recipe(untrained_bundle, recipe="mask", mask_from=3,
                             mask_to=6)
    for seeds in ([7], [3, 0, 5]):
        sources = []
        for edit in (lambda e_s, e_t: (eo.mix_swap(e_s, e_t, ()), None),
                     lambda e_s, e_t: (eo.mix_scale(e_s, 5, 1.0), None)):
            outcomes = eo.run_edit(untrained_bundle, src, dst, edit,
                                   seeds=seeds)
            assert len(outcomes) == len(seeds)
            for outcome in outcomes:
                assert np.array_equal(outcome.i_s, outcome.i_star)
                assert outcome.background_l2 == 0.0
                assert outcome.class_src == outcome.class_star
                assert outcome.style_src == outcome.style_star
            sources.append([o.i_s for o in outcomes])
        masked = eo.run_edit(untrained_bundle, src, dst, masked_edit,
                             seeds=seeds)
        sources.append([o.i_s for o in masked])
        assert all(np.array_equal(a, b) for s in sources[1:]
                   for a, b in zip(sources[0], s))


def test_edit_report_csv_roundtrip(tmp_path, ckpt, untrained_bundle):
    """The edit command's edits.csv holds each seed's outcome, exactly."""
    src, dst = "a photo of hbar bright", "a photo of vbar bright"
    assert cli.main(["edit", "--ckpt", ckpt, "--out", str(tmp_path),
                     "--recipe", "swap", "--positions", "5",
                     "--from", src, "--to", dst, "--seeds", "2"]) == 0
    label, edit = _recipe(untrained_bundle, recipe="swap", positions="5",
                          **{"from": src, "to": dst})
    outcomes = eo.run_edit(untrained_bundle, src, dst, edit, range(2))
    lines = (tmp_path / "edits.csv").read_text().splitlines()
    assert lines[0] == ("seed,recipe,class_src,class_star,style_src,"
                        "style_star,background_l2")
    assert len(lines) == 3
    for line, (s, o) in zip(lines[1:], enumerate(outcomes)):
        f = line.split(",")
        assert f[:4] == [str(s), label, str(o.class_src), str(o.class_star)]
        assert [float(v) for v in f[4:]] == [o.style_src, o.style_star,
                                             o.background_l2]
