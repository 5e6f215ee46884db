"""Exception hierarchy shared by all cbirnet modules."""


class CbirError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CbirError):
    """A layer, network, or run was configured inconsistently."""


class InputError(CbirError):
    """User-supplied data violates a precondition."""


class InternalError(CbirError):
    """State produced by one call does not match its counterpart."""


class TrainingDiverged(CbirError):
    """A non-finite loss or gradient appeared during training."""


class FormatError(CbirError):
    """A checkpoint or index file, or its metadata, is not what the reader
    expects: wrong magic, bad header or payload, or trailing bytes."""


class VersionMismatchError(FormatError):
    """A binary file was written by an incompatible format version."""


class TruncatedFileError(FormatError):
    """A binary file ends before its declared payload is complete."""


class StaleIndexError(CbirError):
    """A feature index does not match the network it is used with."""
