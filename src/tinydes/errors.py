"""Exception types raised across the package."""


class TinyDesError(Exception):
    """Base class for all package errors."""


class FormatError(TinyDesError):
    """Malformed input file: bad magic, bad version, truncation, ragged CSV."""


class ShapeError(TinyDesError):
    """Vector/matrix length does not match the fitted model."""


class StratificationError(TinyDesError):
    """A class is too small for the requested split or fold count."""


class ClusterError(TinyDesError):
    """Fewer points than clusters, or a Lloyd step that raised inertia."""


class SelectionError(TinyDesError):
    """Invalid selection parameters (empty ensemble, empty region, J > N_acc)."""


class ModelCorruptError(TinyDesError):
    """Structurally invalid model: out-of-range node or ensemble indices."""


class ChecksumError(TinyDesError):
    """Model bytes fail CRC32 verification."""


class CapacityError(TinyDesError):
    """Model exceeds the 16-bit limits of the compact format."""


class NondeterminismError(TinyDesError):
    """A deterministic quantity, such as an engine's cost, varied between runs."""


class IoError(TinyDesError):
    """Filesystem failure while writing reports or models."""
