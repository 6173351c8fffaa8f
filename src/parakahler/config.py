"""The ``key = value`` text of potential configs and Satake diagram files.

One key per line, ``#`` starts a comment, keys are case-insensitive.  Unknown
keys, and repeats of keys not listed as repeated, are errors naming the line.
Value readers take the text and where it came from (``line 3: scale``,
``--lambda``) and raise ``ConfigError`` naming that place.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ConfigError

# Python's default int/str conversion limit.  Fraction("1e999999") builds
# 10**999999 (0.4 s) before anything could check it, and a longer numerator
# cannot be printed, so both are refused first.
MAX_DIGITS = 4300


class Fields:
    """Each key's ``(line, value)`` pairs, keys in order of first appearance."""

    def __init__(self, text: str, keys, required=(), repeated=()) -> None:
        self.lines: dict[str, list[tuple[int, str]]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            if key not in keys:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in self.lines and key not in repeated:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            self.lines.setdefault(key, []).append((lineno, value.strip()))
        for key in required:
            if key not in self.lines:
                raise ConfigError(f"missing required key {key!r}")

    def line(self, key: str) -> int:
        return self.lines[key][0][0]

    def all(self, key: str, read) -> list:
        """Every value of ``key``, each as ``read(value, where)``."""
        return [read(value, f"line {n}: {key}") for n, value in self.lines.get(key, ())]

    def get(self, key: str, read=lambda value, where: value, default=None):
        """The value of ``key`` as ``read(value, where)``; ``default`` if absent."""
        return self.all(key, read)[0] if key in self.lines else default


def _read(text: str, where: str, what: str, convert):
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{where} must be {what}, got {text!r}") from None


def _exact(text: str) -> Fraction:
    exponent = text.strip().lower().partition("e")[2]
    if exponent and abs(int(exponent)) > MAX_DIGITS:
        raise ValueError
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise ValueError
    return value


def _finite(value):
    if not math.isfinite(float(value)):
        raise ValueError
    return value


def integer(text: str, where: str) -> int:
    return _read(text, where, "an integer", int)


def rational(text: str, where: str) -> Fraction:
    """An exact rational such as ``3``, ``-2/3`` or ``1.5e-3``."""
    return _read(text, where, f"a rational of at most {MAX_DIGITS} digits", _exact)


def float_rational(text: str, where: str) -> Fraction:
    """A ``rational`` that a float can hold (``1e400`` is refused)."""
    return _read(text, where, "a float-range rational", lambda t: _finite(_exact(t)))


def finite_float(text: str, where: str) -> float:
    return _read(text, where, "a finite float", lambda t: _finite(float(t)))


def nodes(text: str, where: str, pairs: bool = False) -> list:
    """1-based node indices like ``1, 3``; with ``pairs``, arrows like ``1-6, 3-5``."""
    shape = r"(\d+)-(\d+)" if pairs else r"(\d+)"

    def convert(t: str) -> list:
        found = [re.fullmatch(shape, item) for item in re.split(r"[,\s]+", t) if item]
        if not all(found):
            raise ValueError
        return [tuple(map(int, m.groups())) if pairs else int(m[1]) for m in found]

    return _read(text, where, "a list like " + ("'1-6, 3-5'" if pairs else "'1, 3'"), convert)
