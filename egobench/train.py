"""Workload ``train``: dataset I/O, training and classification of actions.

Set-up synthesizes a labelled 36-class dataset and writes it as NDJSON. A
round reads it back (``load_dataset`` + ``encode_frames``), trains
``ActionModel`` with the program's default config (width, batch size and
learning rate) for a fixed number of epochs, one ``model.train`` call per
epoch through its resume arguments, and classifies the held-out validation
and test sequences with the best checkpoint. Each ``model.train`` call also
prepares the validation set and snapshots the parameters once, which a
single call for all epochs would do once per run.
Augmentation and the ``nnkit`` forward/backward passes do nearly all the
work; the range-segmentation path does none.
"""

from __future__ import annotations

import math
import shutil

import numpy as np

from egohand import model, nnkit, sequence, synth
from egohand.sequence import FRAME_DIM, N_CLASSES, SEQ_LEN


PER_CLASS = 6
EPOCHS = 40
BLOCKS = 5
LOADS_PER_BLOCK = 2
EVALS_PER_BLOCK = 4
# 9x chance (1/36): a guessing classifier reaches it on a 36-sequence split with
# probability 5e-7. At the default size the lowest top-1 over 16 seeds was 0.39
TOP1_FLOOR = 0.25


class Train:
    setup_repeats = 5

    def __init__(self, seed: int, workdir: str, epochs: int = EPOCHS):
        self.seed = seed
        self.epochs = epochs
        # the program's default training config: batches of 64 at base_lr 1e-3
        self.cfg = model.ActionModelConfig(seed=seed, max_epochs=epochs)
        self.data_dir = f"{workdir}/dataset"
        self.written = None
        self.state = {}
        self.reference = None
        self.rounds_differing = 0

    def setup(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.written = synth.generate_dataset(synth.SynthParams(), N_CLASSES, PER_CLASS, self.seed)
        sequence.save_dataset(self.data_dir, self.written)

    def round(self):
        """Yield (stage, items, operation); stage 1 trains an epoch, 2 evaluates, 3 loads."""
        cfg, st = self.cfg, self.state
        n_all = len(self.written.sequences)
        n_split = {s: sum(q.split == s for q in self.written.sequences) for s in sequence.SPLITS}

        def load():
            ds = sequence.load_dataset(self.data_dir)
            sets = {s: [] for s in sequence.SPLITS}
            for seq in ds.sequences:
                sets[seq.split].append((sequence.encode_frames(seq), seq.action_label))
            st["loaded"], st["sets"] = ds, sets

        st["net"] = model.ActionModel(cfg)
        st["history"] = model.TrainHistory()

        def epoch(e):
            sets = st["sets"]
            result = model.train(sets["train"], sets["val"], cfg, model=st["net"],
                                 start_epoch=e, epochs=e + 1, history=st["history"])
            if st["history"].best_epoch == e:
                st["best"] = result.best

        def classify():
            best = model.ActionModel(cfg, params=st["best"])
            st["eval"] = {}
            for split in ("val", "test"):
                x, y = model.prepare_eval_set(st["sets"][split], cfg)
                st["eval"][split] = model.evaluate(best, x, y)

        # the stages alternate in blocks, so each one is sampled across the whole
        # round; reloading yields identical sets and the last evaluation sees the
        # final best checkpoint
        blocks = min(BLOCKS, self.epochs)
        for block in range(blocks):
            for _ in range(LOADS_PER_BLOCK):
                yield 3, n_all, load
            for e in range(block * self.epochs // blocks, (block + 1) * self.epochs // blocks):
                yield 1, n_split["train"], lambda e=e: epoch(e)
            for _ in range(EVALS_PER_BLOCK):
                yield 2, n_split["val"] + n_split["test"], classify
        out = (st["history"].rows, {s: (top1, c.tolist()) for s, (top1, c) in st["eval"].items()})
        if self.reference is None:
            self.reference = out
        elif out != self.reference:
            self.rounds_differing += 1

    def summary(self) -> dict:
        if self.reference is None:
            return {}
        rows, evals = self.reference
        return {"loss_first": rows[0][1], "loss_last": rows[-1][1],
                **{f"{split}_top1": top1 for split, (top1, _) in evals.items()}}

    # --- independent checks -------------------------------------------------------

    def check(self) -> list[str]:
        if self.reference is None:
            return ["no round completed"]
        problems = []
        if self.rounds_differing:
            problems.append(f"{self.rounds_differing} rounds gave other results than the first")
        written, loaded = self.written.sequences, self.state["loaded"].sequences
        if len(written) != len(loaded):
            problems.append(f"wrote {len(written)} sequences, read {len(loaded)}")
        for a, b in zip(written, loaded):
            same = (a.sequence_id, a.action_label, a.split) == (b.sequence_id, b.action_label, b.split)
            if not (same and np.array_equal(sequence.encode_frames(a), sequence.encode_frames(b))):
                problems.append(f"sequence {a.sequence_id} changed in the write-read round trip")
                break
        rows, evals = self.reference
        losses = [r[1] for r in rows]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite training loss {losses}")
        elif not losses[-1] < losses[0]:
            problems.append(f"loss did not fall: first epoch {losses[0]:.4f}, last {losses[-1]:.4f}")
        for split, (top1, confusion) in evals.items():
            confusion = np.asarray(confusion)
            n = int(confusion.sum())
            if n != sum(1 for q in written if q.split == split):
                problems.append(f"{split}: confusion matrix counts {n} sequences")
            if int(np.trace(confusion)) / n != top1:
                problems.append(f"{split}: confusion trace / n = {np.trace(confusion) / n} != top-1 {top1}")
            if not top1 >= TOP1_FLOOR:
                problems.append(f"{split} top-1 {top1:.4f} below the floor {TOP1_FLOOR}")
        worst = self._grad_check()
        if not worst < 1e-4:
            problems.append(f"grad_check relative error {worst:.2e}")
        return problems

    def _grad_check(self) -> float:
        """Finite-difference check of the full model's backward pass on a small config."""
        cfg = model.ActionModelConfig(d_model=8, heads=2, ff_width=16, n_classes=5, seed=self.seed)
        net = model.ActionModel(cfg)
        for name, p in net.params.values.items():
            leaf = name.rsplit(".", 1)[-1]
            if not (leaf == "g" or leaf.startswith("b")):
                p *= 10.0  # off the tiny-init point, where gradients sit at roundoff level
        rng = np.random.default_rng(self.seed)
        x = rng.normal(0.0, 10.0, (2, SEQ_LEN, FRAME_DIM))
        y = np.array([1, 3])

        def closure():
            net.params.zero_grads()
            loss, _ = net.loss_and_grads(x, y)
            return loss

        return nnkit.grad_check(closure, net.params, samples_per_param=3, rng=np.random.default_rng(0))
