"""Exception hierarchy.

Everything raised on purpose by this package derives from :class:`PermlexError`,
so callers (and the CLI) can catch a single type at the boundary.
"""


class PermlexError(Exception):
    """Base class for all errors raised by permlex."""


class PrefixTooShort(PermlexError):
    """A computation needed more letters than the word can provide."""


class LimitExceeded(PermlexError):
    """A prefix request went past the source's hard length limit."""


class InvalidDirective(PermlexError):
    """A Sturmian directive was empty or contained a non-positive entry."""


class WordSpecError(PermlexError):
    """A word-spec string did not match the grammar."""


class HorizonExhausted(PermlexError):
    """Two shifts agreed on every letter up to the comparison horizon.

    For an aperiodic word this means the horizon was too small; for a
    periodic word no horizon will ever separate the shifts.
    """


class DomainError(PermlexError):
    """An argument fell outside the documented domain of an operation."""


class LengthTooSmall(PermlexError):
    """A permutation was too short for the requested restriction."""


class LengthMismatch(PermlexError):
    """Two permutations that must have equal length did not."""


class ClassMissing(PermlexError):
    """A window did not contain every run class, so it has no class profile."""


class WrongSource(PermlexError):
    """An operation that only applies to doubled words got something else."""


class Unsaturated(PermlexError):
    """A count or factor statistic that had to be saturated did not
    stabilise within the allowed scan or window."""
