"""Exception and warning types shared across the toolkit."""


class PersalError(Exception):
    """Base class for validation errors raised by the library."""


class ZeroDimError(PersalError):
    pass


class DimMismatchError(PersalError):
    pass


class EmptyListError(PersalError):
    pass


class UnmappedCategoryError(PersalError):
    pass


class RatingOutOfRangeError(PersalError):
    pass


class TooManySuperCategoriesError(PersalError):
    pass


class NotNormalizedError(PersalError):
    pass


class ZeroVarianceError(PersalError):
    pass


class UndefinedRatioError(PersalError):
    pass


class ZeroMassError(PersalError):
    pass


class OutOfRangeError(PersalError):
    pass


class PersalIOError(Exception):
    """Base class for file-format errors (distinct exit code in the CLI)."""


class BadMagicError(PersalIOError):
    pass


class ChecksumMismatchError(PersalIOError):
    pass


class TruncatedFileError(PersalIOError):
    pass


class ConstantGridWarning(UserWarning):
    """Min-max normalization hit a constant grid; the result is all zeros."""
