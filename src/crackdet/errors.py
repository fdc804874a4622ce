"""Exception types shared across the package."""


class CrackdetError(Exception):
    """Base class for all package errors."""


class ShapeError(CrackdetError):
    """An operation received arrays whose shapes do not satisfy its contract."""


class ConfigError(CrackdetError):
    """A run configuration is malformed (unknown key, bad value, bad combination)."""


class DataError(CrackdetError):
    """An annotation file or dataset directory violates its schema."""


class NumericsError(CrackdetError):
    """A numerical check failed or an op produced a non-finite value."""


def check_range(key, value, low, high, ends):
    """ConfigError naming ``key`` unless ``value`` lies between ``low`` and
    ``high``, where ``ends`` "[)" reads low <= value < high. A NaN fails every
    range; an open end at infinity rejects that infinity."""
    above = low < value if ends[0] == "(" else low <= value
    below = value < high if ends[1] == ")" else value <= high
    if not (above and below):
        raise ConfigError(f"{key} must be in {ends[0]}{low}, {high}{ends[1]}, got {value}")
