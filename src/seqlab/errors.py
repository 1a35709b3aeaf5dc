"""Exception types shared across the toolkit."""


class SeqlabError(Exception):
    """Base class for all toolkit errors."""


class SpecError(SeqlabError, ValueError):
    """A spec string (set, theta, modulus, matrix, ...) could not be parsed."""


class TruncationError(SeqlabError, ValueError):
    """Requested data lies beyond the materialized truncation."""


class UnboundedNormError(SeqlabError, ArithmeticError):
    """The Luxemburg bracket search escaped its growth cap."""


class SpreadError(SeqlabError, ValueError):
    """Values to be binned spread past the float range, so no limit can be estimated."""


class GenerationError(SeqlabError, ValueError):
    """A constructive generator cannot satisfy its defining inequality."""


class WitnessExtractionError(SeqlabError):
    """Witness-set construction got stuck: some level has no valid tail threshold."""

    def __init__(self, stuck_level: int, message: str):
        super().__init__(message)
        self.stuck_level = stuck_level


class CauchyConstructionError(SeqlabError):
    """Nested-interval limit construction failed (missing anchor or empty intersection)."""

    def __init__(self, level, message: str):
        super().__init__(message)
        self.level = level
