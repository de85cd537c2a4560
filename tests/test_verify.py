import numpy as np
import pytest

from embedlab import cli
from embedlab import denoiser as dn
from embedlab import text_encoder as te
from embedlab import verify as vf


@pytest.mark.parametrize("check", vf.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    result = vf.run_check(check, seed=0)
    assert result.passed, f"{result.name}: {result.detail}"


def _zero_gradient(monkeypatch, module, fn_name, tensor):
    """Wrap module.fn_name, which returns a gradient dict (alone or first
    of a tuple), so that tensor's gradient comes back zeroed."""
    orig = getattr(module, fn_name)

    def zeroed(*args, **kwargs):
        out = orig(*args, **kwargs)
        (out[0] if isinstance(out, tuple) else out)[tensor][...] = 0.0
        return out
    monkeypatch.setattr(module, fn_name, zeroed)


# the 32 tensors of a two-block encoder and of the denoiser, by the
# function that returns each one's gradient
TENSORS = ([(te, "encode_backward", k)
            for k in te.encoder_param_shapes(te.EncoderConfig(n_blocks=2), 1)]
           + [(dn, "backward_batch", k)
              for k in dn.denoiser_param_shapes(dn.DenoiserConfig())])


@pytest.mark.parametrize("module,fn_name,tensor", TENSORS,
                         ids=[k for _, _, k in TENSORS])
def test_gradient_check_fails_on_a_zeroed_tensor(monkeypatch, module, fn_name,
                                                 tensor):
    _zero_gradient(monkeypatch, module, fn_name, tensor)
    result = vf.run_check(vf.check_denoiser_gradients)
    assert not result.passed, result.detail


def test_gradient_check_fails_on_column_zero_routing(monkeypatch):
    """Every conditioning row's gradient sent to its sample's column-0
    prompt: right on unswapped samples, wrong on swapped ones."""
    orig = dn._gather_conditioning

    def column_zero(emb_all, row_src, work=None):
        emb, unit, _ = orig(emb_all, row_src, work)
        l = emb_all.shape[1]
        return emb, unit, row_src[:, :1] * l + np.arange(l)
    monkeypatch.setattr(dn, "_gather_conditioning", column_zero)
    result = vf.run_check(vf.check_denoiser_gradients)
    assert not result.passed, result.detail


def test_gradient_check_fails_without_a_qualifying_batch(monkeypatch):
    """A stream whose batches hold no swapped row fails the check instead
    of checking a batch that cannot show a misrouted gradient."""
    orig = dn.training_batches

    def unswapped(*args):
        for batch in orig(*args):
            batch.row_src[...] = batch.row_src[:, :1]
            yield batch
    monkeypatch.setattr(dn, "training_batches", unswapped)
    result = vf.run_check(vf.check_denoiser_gradients)
    assert not result.passed and result.detail.startswith("no batch"), result.detail


def test_verify_command_exits_4_on_a_failed_check(monkeypatch, tmp_path):
    monkeypatch.setattr(vf, "ALL_CHECKS", (vf.check_denoiser_gradients,))
    _zero_gradient(monkeypatch, dn, "backward_batch", "wq")
    assert cli.main(["verify", "--out", str(tmp_path / "v")]) == cli.EXIT_VERIFY
    report = (tmp_path / "v" / "verify.txt").read_text()
    assert report.startswith("FAIL") and report.endswith("0/1 checks passed\n")
