"""Exception types and the one count check shared across the package."""


class ConfigurationError(ValueError):
    """Raised when inputs violate a protocol or state-space contract.

    The CLI maps this to exit code 2; everything else that goes wrong in a
    run is reported through result values, not exceptions.
    """


def _at_least(name: str, value, least: int) -> int:
    """``value`` as an int; below ``least`` is a configuration error."""
    if value < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")
    return int(value)
