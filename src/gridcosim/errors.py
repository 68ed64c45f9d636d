"""Exception types shared across the simulator."""


def shape(value) -> str:
    """What a peer sent, for an error message: its type, and the length of a
    str, list or dict, but never the value, so the text stays bounded."""
    if type(value) in (str, list, dict):
        return f"a {type(value).__name__} of {len(value)}"
    return f"a {type(value).__name__}"


# The longest peer string an error message quotes.
QUOTE_LIMIT = 200


def quotable(value) -> bool:
    """Whether an error message may quote a peer value: a printable str of at
    most ``QUOTE_LIMIT`` characters, whose repr stays bounded and on one line."""
    return type(value) is str and len(value) <= QUOTE_LIMIT and value.isprintable()


def quote(value) -> str:
    """What a peer sent, for an error message: its repr if ``quotable``, else its ``shape``."""
    return repr(value) if quotable(value) else shape(value)


class GridCoSimError(Exception):
    """Base class for all simulator errors."""


class ParseError(GridCoSimError):
    """A scenario file or wire frame could not be parsed."""


class ValidationError(GridCoSimError):
    """A configuration invariant was violated.

    ``key`` names the offending configuration field.
    """

    def __init__(self, key: str, detail: str = ""):
        self.key = key
        super().__init__(f"{key}: {detail}" if detail else key)


class DecodeError(ParseError):
    """A wire frame failed to decode; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int = 0):
        self.offset = offset
        super().__init__(f"{message} (byte {offset})")


class FederationStarted(GridCoSimError):
    """Registration attempted after the federation already started."""


class DuplicateName(GridCoSimError):
    """A federate name was registered twice."""


class ProtocolViolation(GridCoSimError):
    """A federate broke the timeslot protocol contract."""


class FederateTimeout(GridCoSimError):
    """A federate failed to acknowledge a granted slot in time."""


class EmptyDistribution(GridCoSimError):
    """A statistic was requested over an empty sample."""


class UsageError(GridCoSimError):
    """Invalid command-line usage."""
