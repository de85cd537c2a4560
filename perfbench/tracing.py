"""Span tracing of embedlab's layers, installed from outside the program.

Each traced function is replaced by a wrapper in every embedlab module that
holds a reference to it (so both `dn.forward_batch(...)` and a name brought
in with `from .denoiser import forward_batch` reach the wrapper), and a
traced method is replaced on its class. A wrapper records a span
(name, start, end, parent) and nothing else, except on
`denoiser.forward_batch`, where it also counts the rows of the batch and
whether the batch's conditioning was already seen during the same command.

A function that no longer exists is reported as absent; its metrics read 0.
"""

import functools
import importlib
import sys
import time
import zlib

import numpy as np

# (span name, module, attribute path within the module)
TARGETS = (
    ("text_encoder.encode_batch", "embedlab.text_encoder", "encode_batch"),
    ("text_encoder.encode_backward", "embedlab.text_encoder", "encode_backward"),
    ("denoiser.forward_batch", "embedlab.denoiser", "forward_batch"),
    ("denoiser.backward_batch", "embedlab.denoiser", "backward_batch"),
    ("denoiser.loss_and_grads", "embedlab.denoiser", "loss_and_grads"),
    ("denoiser.train", "embedlab.denoiser", "train"),
    ("denoiser.load_checkpoint", "embedlab.denoiser", "load_checkpoint"),
    ("rng.Rng.normal", "embedlab.rng", "Rng.normal"),
    ("pipeline.generate_batch", "embedlab.pipeline", "ModelBundle.generate_batch"),
    ("diffusion.sample", "embedlab.diffusion", "sample"),
    ("diffusion.ddim_invert", "embedlab.diffusion", "ddim_invert"),
    ("optimizer.optimize", "embedlab.optimizer", "optimize"),
    ("optimizer.fd_gradient", "embedlab.optimizer", "fd_gradient"),
    ("optimizer.surrogate_loss", "embedlab.optimizer", "surrogate_loss"),
    ("edit_ops.run_edit", "embedlab.edit_ops", "run_edit"),
    ("linalg.svd", "embedlab.linalg", "svd"),
    ("toyworld.oracle_classify", "embedlab.toyworld", "oracle_classify"),
    ("toyworld.save_pgm", "embedlab.toyworld", "save_pgm"),
)
FORWARD = "denoiser.forward_batch"


def _conditioning_key(args, kwargs):
    """Fingerprint of forward_batch's `emb` argument, or None if not found."""
    emb = kwargs["emb"] if "emb" in kwargs else args[4] if len(args) > 4 else None
    if not isinstance(emb, np.ndarray):
        return None
    # one embedding broadcast over the batch is fingerprinted once
    rows = emb[0] if emb.ndim == 3 and emb.strides[0] == 0 else emb
    return emb.shape, zlib.crc32(np.ascontiguousarray(rows).data)


class Tracer:
    """Records spans of the traced functions once installed."""

    def __init__(self):
        self.names = []       # span name by id
        self.spans = []       # (name id, start, end, parent span index or -1)
        self.stack = []
        self.absent = []
        self.rows = 0
        self.repeats = 0
        self.seen = set()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        forward = name == FORWARD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if forward:
                self._count_forward(args, kwargs)
            return self._run(nid, fn, args, kwargs)
        return traced

    def _run(self, nid, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (nid, start, end, parent)

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (for the caller's own calls)."""
        return self._run(self._name_id(name), fn, args, kwargs)

    def _count_forward(self, args, kwargs):
        x = kwargs["x"] if "x" in kwargs else args[2] if len(args) > 2 else None
        self.rows += int(np.shape(x)[0]) if np.ndim(x) else 0
        key = _conditioning_key(args, kwargs)
        if key is not None:
            self.repeats += key in self.seen
            self.seen.add(key)

    def install(self):
        """Wrap every target that exists; returns the names found absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "embedlab" or n.startswith("embedlab.")]
        for name, modname, path in TARGETS:
            self._name_id(name)
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            traced = self._wrap(name, fn)
            if outer:  # a method: callers find it on its class
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        return self.absent

    def new_command(self):
        """Conditioning repeats are counted within one command."""
        self.seen.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,name,start_s,end_s,parent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")

    def summary(self):
        """Per name: busy time, self time and calls; plus ancestry counts.

        Returns (stats, under) where stats[name] = [busy_s, self_s, calls]
        and under[(child, ancestor)] counts spans of `child` that ran
        inside a span of `ancestor`.
        """
        stats = {n: [0.0, 0.0, 0] for n in self.names}
        ancestors = []   # per span: frozenset of ancestor name ids, shared
        shared = {}
        under = {}
        for nid, start, end, parent in self.spans:
            dur = end - start
            st = stats[self.names[nid]]
            st[0] += dur
            st[1] += dur
            st[2] += 1
            anc = frozenset()
            if parent >= 0:
                pid = self.spans[parent][0]
                stats[self.names[pid]][1] -= dur
                key = (ancestors[parent], pid)
                anc = shared.get(key)
                if anc is None:
                    anc = shared[key] = key[0] | {pid}
            ancestors.append(anc)
            for a in anc:
                key = (self.names[nid], self.names[a])
                under[key] = under.get(key, 0) + 1
        return stats, under
