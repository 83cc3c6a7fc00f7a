"""Workload ``segment``: the ``segment`` command, one file at a time.

Set-up writes a fixture tree of scene frames (pseudo-depth, metric and
ground-truth ``.dmap`` files plus PPM frames). A round runs
``egohand.cli.main(["segment", ...])`` over the frames three ways: with a
``--t`` disparity threshold at the band midpoint, with ``--metric-mm 700``,
and with ``--t`` plus ``--desharpen``. This exercises the per-frame path
through ``.dmap``/PPM I/O and ``apply_mask``, not the in-memory bulk path.

``segment`` only picks ``<stem>.dmap`` names out of a directory, so the
metric maps are staged as plain ``<stem>.dmap`` copies of ``<stem>.mm.dmap``.

The checks read every output with the benchmark's own ``struct``/numpy
readers and rebuild the expected masks, soft masks and pixels independently.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import struct

import numpy as np
from scipy.ndimage import uniform_filter

from egohand import cli, synth

FILL = (20, 200, 90)
METRIC_MM = 700.0
RADIUS = 2
_DMAP_HEADER = struct.Struct("<4sHBBII")
_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_dmap(path):
    """(order tag, flag, float32 values) of a ``.dmap`` file."""
    with open(path, "rb") as f:
        buf = f.read()
    magic, version, tag, flag, w, h = _DMAP_HEADER.unpack_from(buf)
    if magic != b"DMAP" or version != 1 or len(buf) != _DMAP_HEADER.size + 4 * w * h:
        raise ValueError(f"{path}: not a version-1 .dmap of {w}x{h}")
    return tag, flag, np.frombuffer(buf, "<f4", offset=_DMAP_HEADER.size).reshape(h, w)


def read_ppm(path):
    with open(path, "rb") as f:
        buf = f.read()
    m = _PPM_HEADER.match(buf)
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255 or len(buf) != m.end() + 3 * w * h:
        raise ValueError(f"{path}: not a {w}x{h} P6 frame with maxval 255")
    return np.frombuffer(buf, np.uint8, offset=m.end()).reshape(h, w, 3)


class Segment:
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str, frames: int = 16, classes: int = 4):
        self.seed = seed
        self.frames = frames
        self.classes = classes
        self.params = synth.SynthParams()
        self.tree = os.path.join(workdir, "tree")
        self.scenes = os.path.join(self.tree, "scenes")
        self.metric = os.path.join(workdir, "metric")
        self.outs = {stage: os.path.join(workdir, f"out{stage}") for stage in (1, 2, 3)}

    def setup(self) -> None:
        for d in (self.tree, self.metric):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(self.tree)
        # one sequence per class, so the frames come from more than one motion
        synth.write_fixture_tree(self.tree, self.params, self.classes, 1, self.seed, scene_frames=self.frames)
        os.makedirs(self.metric)
        for stem in self.stems():
            shutil.copyfile(os.path.join(self.scenes, stem + ".mm.dmap"), os.path.join(self.metric, stem + ".dmap"))

    def stems(self) -> list[str]:
        return sorted(n[: -len(".dmap")] for n in os.listdir(self.scenes)
                      if n.endswith(".dmap") and n.count(".") == 1)

    def _argv(self, stage: int) -> list[str]:
        fill = ",".join(str(v) for v in FILL)
        t = repr(self.params.band_midpoint)
        common = ["--frames", self.scenes, "--fill", fill, "--out", self.outs[stage]]
        if stage == 1:
            return ["segment", "--depth", self.scenes, "--t", t, *common]
        if stage == 2:
            return ["segment", "--depth", self.metric, "--metric-mm", repr(METRIC_MM), *common]
        return ["segment", "--depth", self.scenes, "--t", t, "--desharpen", str(RADIUS), *common]

    def round(self):
        """Yield (stage, items, operation); stage 1 ``--t``, 2 ``--metric-mm``, 3 ``--desharpen``."""
        for stage in (1, 2, 3):
            def run(argv=self._argv(stage)):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"segment exited with code {code}")
            yield stage, self.frames, run

    def summary(self) -> dict:
        """Mean kept fraction of each stage's masks, from its ``mask_stats.csv``."""
        out = {}
        for stage, d in self.outs.items():
            with open(os.path.join(d, "mask_stats.csv")) as f:
                rows = f.read().splitlines()[1:]
            out[f"stage{stage}_kept_fraction"] = sum(float(r.split(",")[1]) for r in rows) / len(rows)
        return out

    # --- independent checks -------------------------------------------------------

    def check(self) -> list[str]:
        problems = []
        stems = self.stems()
        if len(stems) != self.frames:
            problems.append(f"fixture tree holds {len(stems)} frames, expected {self.frames}")
        fill = np.array(FILL, np.float64)
        size = 2 * RADIUS + 1
        for stem in stems:
            _, _, gt = read_dmap(os.path.join(self.scenes, stem + ".gtmask.dmap"))
            frame = read_ppm(os.path.join(self.scenes, stem + ".ppm")).astype(np.float64)
            _, _, depth = read_dmap(os.path.join(self.scenes, stem + ".dmap"))
            depth = depth.astype(np.float64)
            sharp = (depth / depth.max() >= self.params.band_midpoint).astype(np.float64)
            soft = uniform_filter(sharp, size, mode="constant") / uniform_filter(
                np.ones_like(sharp), size, mode="constant")
            for stage in (1, 2, 3):
                tag, flag, mask = read_dmap(os.path.join(self.outs[stage], stem + ".mask.dmap"))
                seg = read_ppm(os.path.join(self.outs[stage], stem + ".seg.ppm")).astype(np.float64)
                where = f"{stem} stage {stage}"
                if tag != 255 or flag != (stage != 3):
                    problems.append(f"{where}: mask header tag {tag} flag {flag}")
                if stage != 3:
                    if not np.array_equal(mask, gt):
                        problems.append(f"{where}: mask differs from the ground truth in {int((mask != gt).sum())} pixels")
                    expected = np.where(gt[:, :, None] == 1.0, frame, fill)
                    if not np.array_equal(seg, expected):
                        problems.append(f"{where}: segmented pixels differ from frame/fill")
                    continue
                err = float(np.abs(mask.astype(np.float64) - soft.astype(np.float32)).max())
                if err > 2.0**-23:
                    problems.append(f"{where}: soft mask off the box average by {err:.2e}")
                m = mask.astype(np.float64)[:, :, None]
                expected = np.clip(np.rint(frame * m + fill * (1.0 - m)), 0, 255)
                if np.abs(seg - expected).max() > 1.0:
                    problems.append(f"{where}: soft-segmented pixels off the blend by more than 1")
        for stage in (1, 2, 3):
            problems += self._check_stats(stage, stems)
        return problems

    def _check_stats(self, stage: int, stems: list[str]) -> list[str]:
        with open(os.path.join(self.outs[stage], "mask_stats.csv")) as f:
            lines = f.read().splitlines()
        if lines[0] != "frame,kept_fraction,kept_pixels" or [ln.split(",")[0] for ln in lines[1:]] != stems:
            return [f"stage {stage}: mask_stats.csv lists other frames than {stems}"]
        problems = []
        for line in lines[1:]:
            stem, kept_fraction, kept_pixels = line.split(",")
            _, _, mask = read_dmap(os.path.join(self.outs[stage], stem + ".mask.dmap"))
            mask = mask.astype(np.float64)
            # binary masks are exact in float32; soft ones were rounded when stored
            rtol = 0.0 if stage != 3 else 1e-6
            if not (np.isclose(float(kept_fraction), mask.mean(), rtol=rtol, atol=0.0)
                    and np.isclose(float(kept_pixels), mask.sum(), rtol=rtol, atol=0.0)):
                problems.append(f"stage {stage} {stem}: mask_stats.csv {kept_fraction},{kept_pixels} "
                                f"!= mask mean {mask.mean()!r}, sum {mask.sum()!r}")
        return problems
