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


def check_ranges(section, obj, rows):
    """ConfigError naming ``section.field`` unless, for each ``(field, low,
    high, ends)`` row, the field of ``obj`` lies between ``low`` and ``high``,
    where ``ends`` "[)" reads low <= value < high. An unset (None) field
    passes; a NaN fails every range; an open end at infinity rejects that
    infinity."""
    for name, low, high, ends in rows:
        value = getattr(obj, name)
        if value is None:
            continue
        above = low < value if ends[0] == "(" else low <= value
        below = value < high if ends[1] == ")" else value <= high
        if not (above and below):
            raise ConfigError(f"{section}.{name} must be in {ends[0]}{low}, {high}{ends[1]}, "
                              f"got {value}")


def check_choice(key, value, allowed):
    """ConfigError naming ``key`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ConfigError(f"unknown {key} '{value}' (expected one of {'|'.join(allowed)})")
