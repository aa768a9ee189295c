"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain values: `Fraction` (always in lowest terms, positive
denominator) for the rationals, `int` residues in [0, p) for a prime field.
A `Field` object carries the field description and the scalar arithmetic,
so structures built over different fields can be told apart; `linalg`
checks scalars against it once per call and then computes on plain values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError, ReductionError

Scalar = Union[int, Fraction]

_LITERAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MAX_PRIME = 1 << 63


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized integers."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; use the `Rationals` and `PrimeField` subclasses."""

    kind: str

    def __eq__(self, other):
        return isinstance(other, Field) and self.to_obj() == other.to_obj()

    def __hash__(self):
        return hash(tuple(sorted(self.to_obj().items())))

    def to_obj(self) -> dict:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, a: Scalar) -> str:
        return str(a)


class Rationals(Field):
    """Arbitrary-precision rational numbers, eagerly normalized."""

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "Rationals()"

    def to_obj(self):
        return {"kind": "rational"}

    def element(self, value) -> Fraction:
        """Coerce an int, Fraction or (num, den) pair to canonical form."""
        if isinstance(value, bool):
            raise FieldMismatchError(f"not a rational scalar: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, tuple) and len(value) == 2:
            return Fraction(value[0], value[1])
        raise FieldMismatchError(f"not a rational scalar: {value!r}")

    def parse(self, text: str) -> Fraction:
        if not isinstance(text, str) or not _LITERAL_RE.match(text.strip()):
            raise ValueError(f"bad rational literal: {text!r}")
        num, slash, den = text.strip().partition("/")
        if slash and int(den) == 0:
            raise ValueError(f"zero denominator in literal: {text!r}")
        return Fraction(text.strip())

    @staticmethod
    def _check(a):
        if type(a) is not Fraction and type(a) is not int:
            raise FieldMismatchError(f"not a rational scalar: {a!r}")

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return a + b

    def neg(self, a):
        self._check(a)
        return -a

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return a * b

    def inv(self, a):
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)


class PrimeField(Field):
    """Integers mod p for a verified machine-word prime p."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"prime modulus must be an integer, got {p!r}")
        if p < 2 or p >= _MAX_PRIME:
            raise ValueError(f"modulus out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.p = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"PrimeField({self.p})"

    def to_obj(self):
        return {"kind": "prime", "p": self.p}

    def element(self, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FieldMismatchError(f"not a mod-{self.p} scalar: {value!r}")
        return value % self.p

    def parse(self, text: str) -> int:
        if not isinstance(text, str) or not re.match(r"^[+-]?\d+$", text.strip()):
            raise ValueError(f"bad mod-{self.p} literal: {text!r}")
        return int(text) % self.p

    def _check(self, a):
        if type(a) is not int:
            raise FieldMismatchError(f"not a mod-{self.p} scalar: {a!r}")

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return (a + b) % self.p

    def neg(self, a):
        self._check(a)
        return -a % self.p

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return a * b % self.p

    def inv(self, a):
        self._check(a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)


QQ = Rationals()


def field_from_obj(obj) -> Field:
    """Build a field from its JSON description {"kind": ..., ["p": ...]}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"bad field description: {obj!r}")
    if obj["kind"] == "rational":
        return QQ
    if obj["kind"] == "prime":
        if "p" not in obj:
            raise ValueError("prime field description is missing \"p\"")
        return PrimeField(obj["p"])
    raise ValueError(f"unknown field kind: {obj['kind']!r}")


def reduce_mod(a: Scalar, p: int) -> int:
    """Push a rational into F_p: numerator * denominator^-1 mod p.

    Defined only when p does not divide the denominator.
    """
    a = QQ.element(a)
    if a.denominator % p == 0:
        raise ReductionError(f"denominator of {a} is divisible by {p}")
    return a.numerator * pow(a.denominator, -1, p) % p
