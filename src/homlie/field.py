"""The two kinds of exact scalar field: the rationals and prime fields.

Scalars are plain values: `Fraction` (always in lowest terms, positive
denominator) for the rationals, `int` residues in [0, p) for a prime field.
A `Field` object describes, parses, formats and checks scalars, so
structures built over different fields can be told apart. It does no
arithmetic: callers check their scalars once on entry (`check`), compute
on plain values and reduce each result vector once (`vector`).

Over Q the computing values are integers: `lift` scales a vector by the
common denominator of its entries, callers compute on the `int`s and
`_unlift` turns a result back into `Fraction`s once, at the output. Over
F_p `lift` is the identity with denominator 1. `_lift_rows` lifts a whole
matrix by one denominator, the lcm of its entries' reduced denominators,
and `_canonical` brings integers over any denominator to that same lift.
Every `LinearMap` and `SkewAlgebra` holds that lift of its columns or
constants from construction (see `algebra`), so consumers read it
instead of lifting.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Union

from .errors import FieldMismatchError, ReductionError

Scalar = Union[int, Fraction]

# ASCII digits only: `\d` would also match other scripts' digits
_LITERAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_RESIDUE_RE = re.compile(r"^[+-]?[0-9]+$")

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
    p: int  # the characteristic: 0 for Q
    _types: frozenset  # the Python types of this field's scalars

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

    def check(self, rows) -> None:
        """Raise FieldMismatchError unless every entry of every row is a
        scalar of this field: an `int` (or `Fraction` over Q), never a
        float or a bool."""
        allowed = self._types
        for row in rows:
            if not allowed.issuperset(map(type, row)):
                bad = next(x for x in row if type(x) not in allowed)
                raise FieldMismatchError(f"not a scalar of {self!r}: {bad!r}")

    def vector(self, values) -> tuple:
        """The canonical tuple of plain values computed over this field."""
        raise NotImplementedError

    def lift(self, values) -> tuple[list, int]:
        """(ints, d) with values == ints / d for a sequence of scalars:
        over Q d is the lcm of the denominators, over F_p the values come
        back with d = 1."""
        raise NotImplementedError


class Rationals(Field):
    """Arbitrary-precision rational numbers, eagerly normalized."""

    kind = "rational"
    p = 0
    _types = frozenset((int, Fraction))
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "Rationals()"

    def to_obj(self):
        return {"kind": "rational"}

    def element(self, value) -> Fraction:
        """Coerce an int or Fraction to canonical form."""
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
        raise FieldMismatchError(f"not a rational scalar: {value!r}")

    def parse(self, text: str) -> Fraction:
        if not isinstance(text, str) or not _LITERAL_RE.match(text.strip()):
            raise ValueError(f"bad rational literal: {text!r}")
        num, slash, den = text.strip().partition("/")
        if slash and int(den) == 0:
            raise ValueError(f"zero denominator in literal: {text!r}")
        return Fraction(text.strip())

    def vector(self, values) -> tuple:
        return tuple(values)

    def lift(self, values) -> tuple[list, int]:
        d = lcm(*{x.denominator for x in values})
        if d == 1:
            return [x.numerator for x in values], 1
        return [x.numerator * (d // x.denominator) for x in values], d


class PrimeField(Field):
    """Integers mod p for a verified machine-word prime p."""

    kind = "prime"
    _types = frozenset((int,))

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
        if not isinstance(text, str) or not _RESIDUE_RE.match(text.strip()):
            raise ValueError(f"bad mod-{self.p} literal: {text!r}")
        return int(text) % self.p

    def vector(self, values) -> tuple:
        p = self.p
        return tuple(x % p for x in values)

    def lift(self, values) -> tuple[list, int]:
        return list(values), 1


QQ = Rationals()


def _lift_rows(field: Field, rows) -> tuple[list, int]:
    """(int_rows, d): a sized collection of equal-length rows of scalars,
    lifted by one common denominator d (`Field.lift`)."""
    ints, d = field.lift([x for row in rows for x in row])
    n = len(ints) // len(rows) if rows else 0
    return [ints[k * n : (k + 1) * n] for k in range(len(rows))], d


def _canonical(field: Field, vecs, d: int = 1) -> tuple[tuple, int]:
    """(ints, d): integer vectors over a positive denominator d (1 over
    F_p) made the canonical lift of their values, as tuples: the residues
    and d = 1 over F_p; over Q ints and d divided by gcd(d, every entry),
    which is the lift `_lift_rows` gives (d the lcm of the reduced
    denominators)."""
    p = field.p
    if p:
        return tuple(tuple(x % p for x in vec) for vec in vecs), 1
    vecs = tuple(map(tuple, vecs))
    g = gcd(d, *chain.from_iterable(vecs)) if d != 1 else 1
    if g != 1:
        vecs, d = tuple(tuple(x // g for x in vec) for vec in vecs), d // g
    return vecs, d


def _unlift(field: Field, ints, d: int = 1) -> list:
    """The field's values of ints / d, undoing `lift`: over Q a list of
    `Fraction`s sharing one zero, over F_p (where d is 1) residues."""
    if field.p:
        return [x % field.p for x in ints]
    zero = field.zero
    return [Fraction(x, d) if x else zero for x in ints]


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
