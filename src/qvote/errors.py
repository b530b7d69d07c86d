"""Exception types and the one count check shared across the package."""

import operator


class ConfigurationError(ValueError):
    """Raised when inputs violate a protocol or state-space contract.

    The CLI maps this to exit code 2; everything else that goes wrong in a
    run is reported through result values, not exceptions.
    """


def _at_least(name: str, value, least: int) -> int:
    """``value`` as an int; a non-integer, or one below ``least``, is a configuration error.

    ints and numpy integers pass; floats do not, even integral ones, so a
    count such as 7.5 is refused rather than truncated.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")
    return count
