"""End-to-end and per-layer benchmark of the egohand pipeline.

Run ``python3 egobench/run.py --workload sweep|train|segment --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""
