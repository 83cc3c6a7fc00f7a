import ctypes
import json
import os
import subprocess
import sys
import textwrap

import pytest

import egohand

# interpreters the tests start (``python -m egohand``, ``python -c``) find the package being tested
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(egohand.__file__)), os.environ.get("PYTHONPATH")]))


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.fixture
def fresh_process_faults():
    """``run(setup, calls)``: the minor page faults (``ru_minflt``) each of the
    ``calls`` statements takes in a fresh interpreter after ``setup`` runs.

    A fresh process keeps the count free of what earlier tests left in the
    allocator. Skips where the C library has no ``mallopt``, the allocator
    setting these counts depend on.
    """
    if not _has_mallopt():
        pytest.skip("the C library has no mallopt")

    def run(setup: str, calls: list[str]) -> list[int]:
        lines = ["import resource", textwrap.dedent(setup), "faults = []"]
        for call in calls:
            lines += ["before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt", call,
                      "faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"]
        lines.append("print(faults)")
        proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    return run
