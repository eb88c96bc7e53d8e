"""Field kinds: what a value read from a config, or passed in by a Python
caller, must be.

``kind.check(value, path, errors)`` appends one message per fault, at the
value's path (``problem.params.ops[1].inner.dim: must be an integer, got
1.9``), and returns what the value stands for (a float, a float array, the
object an ``Object`` builds), or None. The config schema, each problem's
params and the operator specs are made of these kinds, so one recursive
check covers a whole document.
"""

import math
import numbers
import reprlib

import numpy as np

from .errors import ConstructionError, RelosplitError


def _at(path, message):
    return f"{path}: {message}" if path else message


def _is_list(value):
    """A JSON list, or a tuple or an array (not a 0-d one) from Python."""
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim > 0


def _is_number(value):
    # float and int come first in the tuple: numbers.Real is an ABC lookup
    return not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))


def _is_nested(value):
    """A list whose leaves, at any depth, are finite numbers."""
    if isinstance(value, np.ndarray):
        value = value.tolist()  # Python numbers, bools or text, tested as such
    return isinstance(value, (list, tuple)) and all(
        _is_nested(item) if isinstance(item, (list, tuple, np.ndarray))
        else _is_number(item) and math.isfinite(item) for item in value)


class Leaf:
    """A kind whose value is checked whole: it passes when ``test`` holds and
    ``convert`` takes it without raising; otherwise the error reads
    "<path>: must be <what>, got <value>". A converted value below ``low``,
    when that is given, reads "<path>: must be >= <low>, got <value>"."""

    def __init__(self, what, test, convert=lambda value: value, low=None):
        self.what = what
        self.test = test
        self.convert = convert
        self.low = low

    def check(self, value, path, errors):
        try:
            if self.test(value):
                out = self.convert(value)
                if self.low is None or out >= self.low:
                    return out
                errors.append(_at(path, f"must be >= {self.low}, got {out}"))
                return None
        except OverflowError:  # float() of an integer that no float holds
            errors.append(_at(path, "holds an integer beyond the float range"))
            return None
        except (ValueError, RecursionError):  # ragged or too deeply nested lists
            pass
        errors.append(_at(path, f"must be {self.what}, got {reprlib.repr(value)}"))
        return None


def integer(low=None):
    """An integer, not a bool, and at least ``low`` when that is given."""
    return Leaf("an integer", lambda value: isinstance(value, numbers.Integral)
                and not isinstance(value, bool), int, low)


class ListOf:
    """A list of at least ``low`` (and at most ``high``) items of kind
    ``item``; an item's fault is reported at ``<path>[i]``."""

    def __init__(self, item, low=0, high=None):
        self.item = item
        self.low = low
        self.high = high

    def check(self, value, path, errors):
        if not _is_list(value):
            errors.append(_at(path, f"must be a list, got {reprlib.repr(value)}"))
            return None
        if len(value) < self.low or self.high is not None and len(value) > self.high:
            need = self.low if self.high == self.low else f"at least {self.low}"
            errors.append(_at(path, f"must hold {need} items, got {len(value)}"))
            return None
        count = len(errors)
        items = [self.item.check(item, f"{path}[{i}]", errors) for i, item in enumerate(value)]
        return items if len(errors) == count else None


class Object:
    """A JSON object kind: the keys it allows, each mapped to its kind.

    A required key must be present, a key set to null counts as absent, and
    any other key is an error. Once every field has passed, ``build`` (the
    class the object describes) is called with them, to check their ranges,
    and ``check`` returns what it built; without ``build``, the dict of the
    fields that passed.
    """

    def __init__(self, required, optional=None, build=None):
        self.required = required
        self.optional = optional or {}
        self.build = build

    def check(self, value, path, errors):
        if not isinstance(value, dict):
            errors.append(_at(path, f"must be an object, got {reprlib.repr(value)}"))
            return None
        count = len(errors)
        prefix = f"{path}." if path else ""
        kinds = {**self.required, **self.optional}
        errors += [f"{prefix}{key}: unknown field" for key in value if key not in kinds]
        out = {}
        for key, kind in kinds.items():
            if value.get(key) is None:
                if key in self.required:
                    errors.append(f"{prefix}{key}: required field")
                continue
            before = len(errors)
            item = kind.check(value[key], prefix + key, errors)
            if len(errors) == before:
                out[key] = item
        if self.build is None:
            return out
        if len(errors) == count:
            try:
                return self.build(**out)
            except RelosplitError as exc:
                errors.append(_at(path, str(exc)))
        return None


class Tagged:
    """A JSON object whose ``tag`` key names its variant, the Object kind of
    its other keys. Under a tag that names no variant only the tag is
    reported: no variant says what the other keys mean."""

    def __init__(self, tag, variants):
        self.tag = tag
        self.variants = variants

    def check(self, value, path, errors):
        if not isinstance(value, dict):
            errors.append(_at(path, f"must be an object, got {reprlib.repr(value)}"))
            return None
        at = f"{path}.{self.tag}" if path else self.tag
        if value.get(self.tag) is None:
            errors.append(f"{at}: required field")
            return None
        name = one_of(*self.variants).check(value[self.tag], at, errors)
        if name is None:
            return None
        body = {key: item for key, item in value.items() if key != self.tag}
        return self.variants[name].check(body, path, errors)


def one_of(*choices):
    return Leaf(f"one of {', '.join(choices)}",
                lambda value: isinstance(value, str) and value in choices)


def checked(kind, value, path=""):
    """What ``value`` stands for as ``kind``, for a Python caller: a fault
    raises ConstructionError naming every fault at its path."""
    errors = []
    out = kind.check(value, path, errors)
    if errors:
        raise ConstructionError("; ".join(errors))
    return out


NUMBER = Leaf("a number", _is_number, float)
INTEGER = integer()
NUMBERS = ListOf(NUMBER)
#: A vector, a matrix or a stack of them, as a float array: a ragged list,
#: or a NaN or infinite entry, is refused where it is read
NESTED_NUMBERS = Leaf("a (nested) list of finite numbers", _is_nested,
                      lambda value: np.array(value, dtype=float))
