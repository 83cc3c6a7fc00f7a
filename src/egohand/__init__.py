"""Egocentric hand pipeline: pseudo-depth range segmentation, pinhole
lifting, pose metrics, sequence encoding, and a from-scratch transformer
action classifier with synthetic-scene experiment harnesses.

Importing the package sets the process's allocator policy once, so every
module, and every program that imports one, runs under it."""

import ctypes

__version__ = "0.1.0"
kernel_backend = "numpy"

# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Keep freed memory in the process for the next array of its size.

    A training step, a per-scene blur or a per-frame mask makes and frees
    arrays of the same sizes again and again. By default glibc unmaps a large
    freed block and trims free heap back to the kernel, which then zero-fills
    the next such array a page at a time (a minor fault per 4 KiB). This sets,
    through ``mallopt``, blocks up to 32 MiB to come from the heap and up to
    256 MiB of free heap to stay mapped, for the rest of the process. Off
    glibc, where the C library has no ``mallopt``, it does nothing: results
    keep their bytes, only the faults differ.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()
