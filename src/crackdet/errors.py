"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints


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


def cut(text, limit=80):
    """``text`` cut to ``limit`` characters plus '...', so that an error line
    quoting a rejected value stays short."""
    return text if len(text) <= limit else text[:limit] + "..."


def finite(value, name, error=DataError, text=False):
    """``float(value)`` if ``value`` is a finite number, else ``error`` naming
    ``name``: the one number rule for input files and config values. A number
    is a real that is no bool or, with ``text`` (XML text), a string that
    ``float()`` reads. NaN, an infinity and an int too large for a float fail."""
    number = math.nan
    if isinstance(value, str if text else numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise error(f"{name} must be a finite number, got {cut(repr(value))}")
    return number


# A float field also takes an int, and both take numpy's scalars.
_NUMBERS = {int: numbers.Integral, float: numbers.Real}


@cache
def _field_types(cls):
    """(field, annotation, accepted types) of each field of ``cls``, None only
    in an ``X | None`` field; cached, as each ``evaluate`` builds an ``EvalConfig``."""
    rows = []
    for key, hint in get_type_hints(cls).items():
        options = get_args(hint) if isinstance(hint, UnionType) else (hint,)
        rows.append((key, hint, tuple(_NUMBERS.get(h, get_origin(h) or h) for h in options)))
    return tuple(rows)


def check_fields(section, obj, ranges):
    """ConfigError naming ``section.field`` unless every field of the
    dataclass ``obj`` has a type its annotation accepts (a bool only a bool
    field), a float field passes ``finite`` and, for each ``(field, low,
    high, ends)`` row of ``ranges``, the field lies between ``low`` and
    ``high``, where ``ends`` "[)" reads low <= value < high. An unset (None)
    field passes its range."""
    for key, hint, types in _field_types(type(obj)):
        value = getattr(obj, key)
        if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
            raise ConfigError(f"config key '{section}.{key}' expects "
                              f"{getattr(hint, '__name__', hint)}, got {cut(repr(value))}")
        if numbers.Real in types:
            finite(value, f"{section}.{key}", ConfigError)
    for name, low, high, ends in ranges:
        value = getattr(obj, name)
        if value is None:
            continue
        above = low < value if ends[0] == "(" else low <= value
        below = value < high if ends[1] == ")" else value <= high
        if not (above and below):
            raise ConfigError(f"{section}.{name} must be in {ends[0]}{low}, {high}{ends[1]}, "
                              f"got {cut(str(value))}")


def check_choice(key, value, allowed):
    """ConfigError naming ``key`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ConfigError(f"unknown {key} '{cut(str(value))}' "
                          f"(expected one of {'|'.join(allowed)})")
