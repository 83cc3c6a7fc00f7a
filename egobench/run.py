"""Benchmark entry point.

    python3 egobench/run.py --workload sweep|train|segment --seed N --seconds S --trace 0|1

Builds nothing: it imports the package from ``src/`` of the checkout that
holds this file, and refuses to run when that source tree is missing. The
last line of standard output is the result object; the line before it holds
the machine block.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def bootstrap() -> str | None:
    """Put the checkout's ``src/`` first on the path; returns an error or None."""
    if not os.path.isfile(os.path.join(SRC, "egohand", "__init__.py")):
        return f"no egohand package under {SRC}"
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import egohand

    if os.path.dirname(os.path.dirname(os.path.abspath(egohand.__file__))) != SRC:
        return f"egohand was imported from {egohand.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sweep", "train", "segment"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    error = bootstrap()
    if error is not None:
        print(f"egobench: {error}", file=sys.stderr)
        return 2
    from egobench import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
