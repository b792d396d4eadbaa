"""
Exact dyadic angle arithmetic.

Synthesis only ever produces rotation angles that are dyadic multiples of pi
(theta = num/den * pi with den a power of two).  Representing them exactly as
integer fractions keeps phase tracking and theta solving free of float error:
equality mod 2*pi is integer arithmetic, and rendering is lossless.

The canonical range is (-pi, pi], i.e. num in (-den, den] after reduction.
"""
from __future__ import annotations

import math

MAX_DENOMINATOR = 64


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_store = object.__setattr__   # how an __init__ stores a field past Record's guard


class Record:
    """An immutable value: ==, hash, repr and pickling over the fields in `_fields`.

    A subclass names its fields and stores each once in `__init__` (with
    `_set`, or `_store` where construction is hot); assignment afterwards
    raises AttributeError.  Pickling and copying rebuild through `__init__`,
    since the guard refuses to restore state attribute by attribute.  The
    values built in bulk (Angle, Gate) spell out == on their fields.
    """
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _store(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Angle(Record):
    """An angle num/den * pi with den a power of two, normalized to (-pi, pi]."""
    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ValueError("Angle denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num, den = num // g, den // g
        if not _is_power_of_two(den) or den > MAX_DENOMINATOR:
            raise ValueError(f"Angle denominator {den} is not a power of two <= {MAX_DENOMINATOR}")
        # Reduce num*pi/den into (-pi, pi]: num into (-den, den].
        num = num % (2 * den)          # [0, 2*den)
        if num > den:
            num -= 2 * den             # (-den, den]
        _store(self, "num", num)
        _store(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is Angle:
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Angle":
        return Angle(-self.num, self.den)

    def __float__(self) -> float:
        return self.num * math.pi / self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def equals_mod_2pi(self, other: "Angle") -> bool:
        return (self - other).num == 0

    def as_positive(self) -> tuple[int, int]:
        """Return (num, den) with the angle wrapped into [0, 2*pi)."""
        num = self.num % (2 * self.den)
        return num, self.den

    def pi_string(self) -> str:
        """Render in [0, 2*pi) as a human-readable multiple of pi, e.g. '7π/4'."""
        num, den = self.as_positive()
        if num == 0:
            return "0"
        coeff = "" if num == 1 else str(num)
        return f"{coeff}π" if den == 1 else f"{coeff}π/{den}"

    def __str__(self) -> str:
        return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse 'num/den' or 'num' (implicit den=1), the circuit-file format."""
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            return cls(int(num_s), int(den_s))
        return cls(int(text), 1)


ZERO = Angle(0, 1)
PI = Angle(1, 1)
PI_2 = Angle(1, 2)
PI_4 = Angle(1, 4)

# Integer arithmetic on angles: every Angle is a whole number of pi/64
# units, summed mod TURN; UNIT_ANGLES[u] is the Angle of u units.
HALF_TURN = MAX_DENOMINATOR
TURN = 2 * HALF_TURN
UNIT_ANGLES = tuple(Angle(u, HALF_TURN) for u in range(TURN))


def to_units(a: Angle) -> int:
    """The angle as a count of pi/64 units, in (-HALF_TURN, HALF_TURN]."""
    return a.num * (HALF_TURN // a.den)
