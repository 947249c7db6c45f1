"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: DomainError / PreconditionError (and
subclasses) -> 1, ResourceLimitError -> 2.
"""


class GroupwalkError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GroupwalkError):
    """Invalid input: element of the wrong group, malformed measure, bad id."""


class PreconditionError(GroupwalkError):
    """An operation's stated precondition does not hold."""


class OutOfRangeError(PreconditionError):
    """A norm/ball/cylinder query fell outside the computed range.

    ``required`` carries the radius or level that would have been needed,
    when known.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class ResourceLimitError(GroupwalkError):
    """A memory or iteration budget was exceeded."""

