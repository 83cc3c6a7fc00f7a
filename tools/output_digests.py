"""Print the sha256 of every output of a fixed egohand command set.

Usage::

    python tools/output_digests.py [SRC]

SRC is the ``src/`` directory whose ``egohand`` package runs the commands
(default: this checkout's). The commands run in a fresh temporary directory
at the caller's ``OPENBLAS_NUM_THREADS``: ``synth`` on a 36x6 tree, three
``segment`` modes, both ``sweep-threshold`` modes, ``encode --csv-dir``,
``train``, ``eval-action``, ``lift``, ``eval-pose`` and ``plot``. The output
is one sorted ``sha256  path`` line per file written, paths relative to that
directory, leaving out the ``*report.json`` run reports (their timings
differ from run to run). Two checkouts whose listings match at the same
thread count wrote the same bytes::

    python tools/output_digests.py > change.txt
    python tools/output_digests.py ../parent/src > parent.txt
    diff parent.txt change.txt

A command that exits non-zero stops the script with its stderr and exit 1.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

COMMANDS = [
    # 36 classes x 6 sequences: 144 train sequences, so each epoch ends on a short batch of 16
    ["synth", "--classes", "36", "--per-class", "6", "--seed", "3", "--scene-frames", "3", "--out", "data"],
    ["segment", "--depth", "data/scenes", "--frames", "data/scenes", "--t", "0.475", "--out", "seg_t"],
    ["segment", "--depth", "data/scenes", "--frames", "data/scenes", "--metric-mm", "700", "--out", "seg_mm"],
    ["segment", "--depth", "data/scenes", "--frames", "data/scenes", "--t", "0.475", "--desharpen", "2",
     "--out", "seg_soft"],
    ["sweep-threshold", "--data", "data", "--t-list", "0.39,0.43,0.47,0.51", "--mode", "train",
     "--scenes", "3", "--out", "sweep_train.csv"],
    ["sweep-threshold", "--data", "data", "--t-list", "0.39,0.43,0.47,0.51", "--mode", "infer",
     "--scenes", "3", "--svg", "sweep_infer_chart.svg", "--out", "sweep_infer.csv"],
    ["encode", "--in", "data", "--out", "encoded.ndjson", "--csv-dir", "matrices"],
    ["train", "--data", "data", "--seed", "1", "--epochs", "3", "--out", "run"],
    ["eval-action", "--data", "data", "--checkpoint", "run/checkpoint.bin", "--split", "val",
     "--out", "confusion.csv"],
    ["eval-action", "--data", "data", "--checkpoint", "run/last.bin", "--mask-group", "box",
     "--out", "confusion_box.csv"],
    ["lift", "--in", "poses25.ndjson", "--out", "lifted.ndjson"],
    ["eval-pose", "--pred", "lifted.ndjson", "--gt", "data/poses.ndjson", "--out", "mpjpe.csv"],
    ["plot", "--csv", "run/history.csv", "--out", "history.svg"],
    ["plot", "--csv", "sweep_train.csv", "--out", "sweep_plot.svg"],
]


def _as_25d(work: str) -> None:
    """``poses25.ndjson``: the tree's pose file with its header's space tag set
    to 2.5d, so each camera-space row reads as (u, v, z) for ``lift``."""
    with open(os.path.join(work, "data", "poses.ndjson")) as f:
        header, rest = f.read().split("\n", 1)
    with open(os.path.join(work, "poses25.ndjson"), "w") as f:
        f.write(header.replace('"space":"3d"', '"space":"2.5d"') + "\n" + rest)


def digests(src: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    with tempfile.TemporaryDirectory(prefix="egohand-digests-") as work:
        for argv in COMMANDS:
            if argv[0] == "lift":
                _as_25d(work)
            proc = subprocess.run([sys.executable, "-m", "egohand", *argv], cwd=work, env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        lines = []
        for root, _, names in os.walk(work):
            for name in names:
                if name.endswith("report.json"):
                    continue
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {os.path.relpath(path, work)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    src = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    if not os.path.isdir(os.path.join(src, "egohand")):
        sys.exit(f"no egohand package under {src}")
    print("\n".join(digests(src)))
