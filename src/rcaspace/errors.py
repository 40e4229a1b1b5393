"""Exception and warning types shared across the pipeline."""


class DataError(ValueError):
    """Input data violates a pipeline contract (bad CSV, bad manifest,
    empty production, degenerate statistics input, ...)."""


class UnknownFieldWarning(UserWarning):
    """A field name matched neither a full name nor a label of ``FIELD_LABELS``."""


class UndefinedCellWarning(UserWarning):
    """Some RCA cells were left undefined by a zero country or field total."""
