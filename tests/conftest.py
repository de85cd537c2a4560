import time

import numpy as np
import pytest

from embedlab import denoiser as dn
from embedlab import text_encoder as te
from embedlab import toyworld as tw
from embedlab.diffusion import make_schedule
from embedlab.pipeline import ModelBundle
from embedlab.rng import Rng


@pytest.fixture(scope="session")
def trained_bundle():
    """The fully trained model shared by the acceptance criteria.

    Training is deterministic, so every session builds the same weights.
    """
    world, vocab = tw.default_world(), te.default_vocabulary()
    enc_cfg, den_cfg = te.EncoderConfig(), dn.DenoiserConfig()
    sched = make_schedule(100, 1e-3, 0.2)
    start = time.time()
    enc_params, den_params, log = dn.train(world, vocab, sched, enc_cfg,
                                           den_cfg, dn.TrainConfig(seed=7))
    bundle = ModelBundle(world, vocab, enc_cfg, den_cfg, sched, enc_params,
                         den_params)
    bundle.train_seconds = time.time() - start
    bundle.final_loss = float(np.mean([l for _, l in log[-5:]]))
    bundle.train_log = log
    return bundle


@pytest.fixture(scope="session")
def untrained_bundle():
    """Random weights; enough for exercising plumbing cheaply."""
    return ModelBundle.untrained(Rng(99))


@pytest.fixture()
def ckpt(tmp_path, untrained_bundle):
    """The untrained model saved as a checkpoint file, for the commands."""
    path = tmp_path / "model.ckpt"
    untrained_bundle.save(path)
    return str(path)
