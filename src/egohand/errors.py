"""Exception types shared across the pipeline.

Every error a caller is expected to branch on gets its own class; plain
ValueError is reserved for argument misuse that indicates a programming
bug rather than bad data.
"""

import functools


class EgohandError(Exception):
    """Base class for all library errors."""


class DegenerateDepthError(EgohandError):
    """A joint has z <= 0 and cannot be lifted/projected."""

    def __init__(self, joint_index: int, z: float):
        self.joint_index = joint_index
        self.z = z
        super().__init__(f"joint {joint_index} has degenerate depth z={z!r} (need z > 0)")


class StructuralError(EgohandError):
    """Shape or dimension mismatch between operands."""


class RangeError(EgohandError):
    """A scalar parameter is outside its admissible range."""


class FlatMapError(EgohandError):
    """Depth map is identically zero; max-normalization is undefined."""


class EmptyDatasetError(EgohandError):
    """An evaluation or report was requested over zero samples."""


class EmptyActionError(EgohandError):
    """A sequence operation received zero frames."""


class _LineError(EgohandError):
    """An error at a line of a text file; carries the line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DatasetFormatError(_LineError):
    """An NDJSON dataset file violates the schema. Carries the line number."""


class FormatError(EgohandError):
    """A binary artifact (.dmap, .ppm, checkpoint) is corrupt or unsupported."""


class CheckpointMismatchError(EgohandError):
    """Checkpoint tensor names/shapes do not match the model configuration."""


class NumericFaultError(EgohandError):
    """A NaN or Inf appeared where finite values are required."""


class ConfigError(_LineError):
    """A config file line cannot be parsed. Carries the line number."""


class DataConsistencyError(EgohandError):
    """Two inputs that must agree (frame ids, presence flags, splits) do not."""


def names_file(read):
    """``read(path, ...)`` with ``path: `` leading the message of each EgohandError
    it raises, which keeps its class and attributes; text that is not UTF-8
    raises FormatError naming the file."""

    @functools.wraps(read)
    def read_file(path, *args):
        try:
            return read(path, *args)
        except EgohandError as e:
            e.args = (f"{path}: {e}",)
            raise
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: {e}") from e

    return read_file
