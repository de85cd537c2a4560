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


def test_apply_recipe_mask_modes(pair):
    e_s, e_t = pair
    out, mask = eo.apply_recipe(
        eo.EditRecipe(kind="mask", mask_range=(2, 4), mask_mode="exclude"),
        e_s, e_t)
    assert out is e_s
    assert np.array_equal(mask.allowed,
                          [True, True, False, False, False, True, True, True])
    out, mask = eo.apply_recipe(
        eo.EditRecipe(kind="mask", mask_range=(2, 4), mask_mode="zero"),
        e_s, e_t)
    assert mask is None
    assert np.all(out.data[2:5] == 0.0)
    assert np.array_equal(out.data[:2], e_s.data[:2])
    with pytest.raises(ValueError):
        eo.apply_recipe(eo.EditRecipe(kind="mask", mask_range=(4, 2)),
                        e_s, e_t)
    with pytest.raises(ValueError):
        eo.apply_recipe(eo.EditRecipe(kind="nope"), e_s, e_t)


def test_recipe_labels():
    """Labels name rows 1-based, as the CLI flags do."""
    assert eo.EditRecipe(kind="swap", positions=(4,)).label() == "swap[5]"
    assert eo.EditRecipe(kind="soft_swap", positions=(4,), weight=0.5).label() \
        == "soft_swap[5:w=0.5]"
    assert eo.EditRecipe(kind="soft_swap", positions=(4, 5), weight=0.25) \
        .label() == "soft_swap[5,6:w=0.25]"
    assert eo.EditRecipe(kind="scale", scale_pos=5, scale=2.0).label() \
        == "scale[6x2.0]"
    assert eo.EditRecipe(kind="mask", mask_range=(1, 3)).label() \
        == "mask[2-4:exclude]"


def test_run_edit_shared_seed_pairing(untrained_bundle):
    """Identity recipes with a shared x_T reproduce the source bitwise, and
    a masked edit leaves its source block unmasked."""
    src, dst = "a photo of hbar bright", "a photo of vbar bright"
    for seeds in ([7], [3, 0, 5]):
        sources = []
        for recipe in (eo.EditRecipe(kind="swap", positions=()),
                       eo.EditRecipe(kind="scale", scale_pos=5, scale=1.0)):
            outcomes = eo.run_edit(untrained_bundle, src, dst, recipe,
                                   seeds=seeds)
            assert len(outcomes) == len(seeds)
            for outcome in outcomes:
                assert np.array_equal(outcome.i_s, outcome.i_star)
                assert outcome.background_l2 == 0.0
                assert outcome.class_src == outcome.class_star
                assert outcome.style_src == outcome.style_star
            sources.append([o.i_s for o in outcomes])
        masked = eo.run_edit(untrained_bundle, src, dst,
                             eo.EditRecipe(kind="mask", mask_range=(2, 5)),
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
    recipe = eo.EditRecipe(kind="swap", positions=(4,))
    outcomes = eo.run_edit(untrained_bundle, src, dst, recipe, range(2))
    lines = (tmp_path / "edits.csv").read_text().splitlines()
    assert lines[0] == ("seed,recipe,class_src,class_star,style_src,"
                        "style_star,background_l2")
    assert len(lines) == 3
    for line, (s, o) in zip(lines[1:], enumerate(outcomes)):
        f = line.split(",")
        assert f[:4] == [str(s), recipe.label(), str(o.class_src),
                         str(o.class_star)]
        assert [float(v) for v in f[4:]] == [o.style_src, o.style_star,
                                             o.background_l2]
