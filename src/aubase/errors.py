"""Exception types shared across the package, and the field check that
config documents go through.

Everything raised on bad user input derives from AubaseError so the CLI can
map it to exit code 1; anything else is treated as an internal failure.
"""

import math
import numbers


class AubaseError(Exception):
    """Base class for input-validation and data-format failures."""

    category = "error"

    def one_line(self) -> str:
        return f"error: {self.category}: {self}"


class InvalidArgumentError(AubaseError):
    category = "invalid-argument"


class DataFormatError(AubaseError):
    """Malformed manifest, sample file, or serialized model."""

    category = "data-format"


class LayoutError(AubaseError):
    """Records cannot be grouped into complete experiments."""

    category = "layout"


class DegenerateDataError(AubaseError):
    """Data has no usable variance for the requested operation."""

    category = "degenerate-data"


class NotConvergedError(AubaseError):
    """An iterative solver hit its iteration cap before its tolerance."""

    category = "not-converged"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # JSON has no NaN or Infinity, but Python's json module reads both
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return _is_int(value) or math.isfinite(value)


def _is_list(value, item) -> bool:
    return isinstance(value, (list, tuple)) and all(item(v) for v in value)


def _is_pair(value, item) -> bool:
    return _is_list(value, item) and len(value) == 2


FIELD_KINDS = {
    "an integer": _is_int,
    "a finite number": _is_number,
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "two positive integers": lambda v: _is_pair(v, lambda x: _is_int(x) and x >= 1),
    "two finite numbers": lambda v: _is_pair(v, _is_number),
    "a list of finite numbers": lambda v: _is_list(v, _is_number),
    "a list of finite number pairs": lambda v: _is_list(
        v, lambda e: _is_pair(e, _is_number)
    ),
}
AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
POSITIVE = ("> 0", lambda v: v > 0)
NON_NEGATIVE = (">= 0", lambda v: v >= 0)


def check_fields(doc: dict, what: str, kinds: dict, ranges: dict, optional) -> None:
    """Refuse a config document whose values have the wrong JSON kind
    (a FIELD_KINDS name per field) or fall outside their (text, test) range.
    Fields named in optional may be null."""
    for key, value in doc.items():
        if value is None and key in optional:
            continue
        if not FIELD_KINDS[kinds[key]](value):
            raise InvalidArgumentError(
                f"{what} field {key!r} must be {kinds[key]}, got {value!r}"
            )
        if key in ranges and not ranges[key][1](value):
            raise InvalidArgumentError(
                f"{what} field {key!r} must be {ranges[key][0]}, got {value!r}"
            )
