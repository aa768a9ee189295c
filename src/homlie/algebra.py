"""Skew-symmetric algebras given by structure constants, and linear maps.

An n-dimensional algebra stores one coordinate vector per ordered basis
pair (i, j) with i < j; the skew extension (j, i) -> negation and
(i, i) -> 0 is definitional and never stored. Basis indices are 1-based
throughout, matching the file formats.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg, rng
from .errors import FieldMismatchError, ShapeError
from .field import Field, PrimeField, Scalar

Vector = tuple


class SkewAlgebra:
    """Immutable skew-symmetric algebra over an exact field."""

    __slots__ = ("dim", "field", "constants")

    def __init__(self, dim: int, field: Field, constants: dict):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "constants", constants)

    def __setattr__(self, name, value):
        raise AttributeError("SkewAlgebra is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SkewAlgebra)
            and self.dim == other.dim
            and self.field == other.field
            and self.constants == other.constants
        )

    def __repr__(self):
        return f"SkewAlgebra(dim={self.dim}, field={self.field!r}, products={len(self.constants)})"

    def zero_vector(self) -> Vector:
        return tuple(self.field.zero for _ in range(self.dim))

    def basis_vector(self, i: int) -> Vector:
        if not 1 <= i <= self.dim:
            raise ShapeError(f"basis index {i} out of range 1..{self.dim}")
        return tuple(self.field.one if k == i - 1 else self.field.zero for k in range(self.dim))

    def structure_vector(self, i: int, j: int) -> Vector:
        """mu(e_i, e_j) as a coordinate vector, with the skew extension."""
        if i == j:
            return self.zero_vector()
        if i < j:
            v = self.constants.get((i, j))
            return v if v is not None else self.zero_vector()
        v = self.constants.get((j, i))
        if v is None:
            return self.zero_vector()
        neg = self.field.neg
        return tuple(neg(x) for x in v)

    def multiply(self, x: Vector, y: Vector) -> Vector:
        """Bilinear product of two coordinate vectors."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ShapeError(f"vectors must have length {n}")
        f = self.field
        zero = f.zero
        out = [zero] * n
        for i in range(n):
            xi = x[i]
            if xi == zero:
                continue
            for j in range(n):
                yj = y[j]
                if yj == zero or i == j:
                    continue
                c = self.structure_vector(i + 1, j + 1)
                coef = f.mul(xi, yj)
                for k in range(n):
                    if c[k] != zero:
                        out[k] = f.add(out[k], f.mul(coef, c[k]))
        return tuple(out)

    def jacobiator(self, x: Vector, y: Vector, z: Vector) -> Vector:
        """mu(mu(x,y),z) + mu(mu(y,z),x) + mu(mu(z,x),y)."""
        f = self.field
        a = self.multiply(self.multiply(x, y), z)
        b = self.multiply(self.multiply(y, z), x)
        c = self.multiply(self.multiply(z, x), y)
        return tuple(f.add(f.add(a[k], b[k]), c[k]) for k in range(self.dim))

    def is_lie(self) -> bool:
        """True iff the Jacobiator vanishes on all basis triples i < j < k."""
        zero = self.zero_vector()
        for i, j, k in combinations(range(1, self.dim + 1), 3):
            jac = self.jacobiator(self.basis_vector(i), self.basis_vector(j), self.basis_vector(k))
            if jac != zero:
                return False
        return True

    def transport(self, g: "LinearMap") -> "SkewAlgebra":
        """The isomorphic algebra mu'(x, y) = g(mu(g^-1 x, g^-1 y)).

        g is the isomorphism from this algebra to the result, so transport
        is a left group action. Raises SingularMatrixError for singular g.
        """
        _check_compatible(self, g)
        ginv = g.inverse()
        constants = {}
        for i, j in combinations(range(1, self.dim + 1), 2):
            w = g.apply(self.multiply(ginv.column(i), ginv.column(j)))
            if any(x != self.field.zero for x in w):
                constants[(i, j)] = w
        return SkewAlgebra(self.dim, self.field, constants)


class LinearMap:
    """An endomorphism stored by columns: column q holds f(e_q)."""

    __slots__ = ("dim", "field", "columns")

    def __init__(self, dim: int, field: Field, columns):
        if not _is_index(dim):
            raise ShapeError(f"dimension must be an integer, got {dim!r}")
        columns = tuple(tuple(col) for col in columns)
        if len(columns) != dim or any(len(col) != dim for col in columns):
            raise ShapeError(f"need {dim} columns of length {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("LinearMap is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.dim == other.dim
            and self.field == other.field
            and self.columns == other.columns
        )

    def __repr__(self):
        return f"LinearMap(dim={self.dim}, field={self.field!r})"

    @classmethod
    def identity(cls, dim: int, field: Field) -> "LinearMap":
        return cls(dim, field, linalg.identity(field, dim))

    @classmethod
    def zero(cls, dim: int, field: Field) -> "LinearMap":
        return cls(dim, field, [[field.zero] * dim] * dim)

    @classmethod
    def from_entries(cls, dim: int, field: Field, entries: dict) -> "LinearMap":
        """Build from a sparse {(p, q): value} entry map, 1-based."""
        cols = [[field.zero] * dim for _ in range(dim)]
        for (p, q), v in entries.items():
            if not (1 <= p <= dim and 1 <= q <= dim):
                raise ShapeError(f"entry position {(p, q)} out of range")
            cols[q - 1][p - 1] = field.element(v)
        return cls(dim, field, cols)

    @classmethod
    def from_flat(cls, dim: int, field: Field, flat) -> "LinearMap":
        """Inverse of flatten: slot (q-1)*dim + (p-1) holds a_{p,q}."""
        if len(flat) != dim * dim:
            raise ShapeError(f"flat vector must have length {dim * dim}")
        return cls(dim, field, [flat[q * dim : (q + 1) * dim] for q in range(dim)])

    def entry(self, p: int, q: int) -> Scalar:
        """a_{p,q}: the e_p-coordinate of f(e_q), 1-based."""
        return self.columns[q - 1][p - 1]

    def column(self, q: int) -> Vector:
        return self.columns[q - 1]

    def rows(self) -> list:
        return [[self.columns[q][p] for q in range(self.dim)] for p in range(self.dim)]

    def flatten(self) -> list:
        """Column-by-column flattening; slot (q-1)*n + (p-1) is a_{p,q}."""
        return [x for col in self.columns for x in col]

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.dim:
            raise ShapeError(f"vector must have length {self.dim}")
        f = self.field
        zero = f.zero
        out = [zero] * self.dim
        for q, vq in enumerate(v):
            if vq == zero:
                continue
            col = self.columns[q]
            for p in range(self.dim):
                if col[p] != zero:
                    out[p] = f.add(out[p], f.mul(col[p], vq))
        return tuple(out)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        _check_same_space(self, other)
        return LinearMap(self.dim, self.field, [self.apply(other.column(q)) for q in range(1, self.dim + 1)])

    def inverse(self) -> "LinearMap":
        inv_rows = linalg.inverse(self.field, self.rows())
        cols = [[inv_rows[p][q] for p in range(self.dim)] for q in range(self.dim)]
        return LinearMap(self.dim, self.field, cols)

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for col in self.columns for x in col)


def _check_same_space(a, b):
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.field != b.field:
        raise FieldMismatchError(f"field mismatch: {a.field!r} vs {b.field!r}")


def _check_compatible(algebra: SkewAlgebra, f: LinearMap):
    if algebra.dim != f.dim:
        raise ShapeError(f"dimension mismatch: algebra {algebra.dim} vs map {f.dim}")
    if algebra.field != f.field:
        raise FieldMismatchError(f"field mismatch: {algebra.field!r} vs {f.field!r}")


def _is_index(x) -> bool:
    # bool is an int subclass, but JSON true is not a dimension or an index
    return isinstance(x, int) and not isinstance(x, bool)


def make_algebra(dim: int, field: Field, products) -> SkewAlgebra:
    """Validate and build an algebra from (i, j, coefficient-vector) triples.

    Unlisted pairs multiply to zero. Pairs must satisfy i < j and appear
    at most once; coefficient vectors must have length dim.
    """
    if not _is_index(dim) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    constants = {}
    for i, j, coeffs in products:
        if not (_is_index(i) and _is_index(j)) or not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"pair ({i!r}, {j!r}) out of range 1..{dim}")
        if i >= j:
            raise ValueError(f"pair ({i}, {j}) must be ordered i < j")
        if (i, j) in constants:
            raise ValueError(f"duplicate product for pair ({i}, {j})")
        coeffs = tuple(coeffs)
        if len(coeffs) != dim:
            raise ShapeError(f"coefficient vector for ({i}, {j}) must have length {dim}")
        vec = tuple(field.element(c) for c in coeffs)
        if any(x != field.zero for x in vec):
            constants[(i, j)] = vec
    return SkewAlgebra(dim, field, constants)


def _scalar_draw(field: Field, bound: int):
    """draw(stream) -> one random scalar: a uniform residue over a prime
    field, a uniform integer in [-bound, bound] over the rationals."""
    if isinstance(field, PrimeField):
        return lambda s: s.below(field.p)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return lambda s: field.element(s.randint(-bound, bound))


def random_algebra(dim: int, field: Field, seed: int, bound: int = 10) -> SkewAlgebra:
    """Seeded random algebra; a pure function of (dim, field, seed, bound).

    Each structure-constant slot draws one scalar from its own (seed, slot)
    stream.
    """
    draw = _scalar_draw(field, bound)
    products = []
    pairs = list(combinations(range(1, dim + 1), 2))
    for pair_rank, (i, j) in enumerate(pairs):
        coeffs = [draw(rng.stream(seed, pair_rank * dim + k)) for k in range(dim)]
        products.append((i, j, coeffs))
    return make_algebra(dim, field, products)


def random_linear_map(dim: int, field: Field, seed: int, bound: int = 10) -> LinearMap:
    """Seeded random endomorphism, same slot discipline as random_algebra."""
    draw = _scalar_draw(field, bound)
    cols = [[draw(rng.stream(seed, q * dim + p)) for p in range(dim)] for q in range(dim)]
    return LinearMap(dim, field, cols)


def random_invertible_map(dim: int, field: Field, seed: int, bound: int = 10) -> LinearMap:
    """Rejection-sample an invertible endomorphism from one (seed) stream."""
    draw = _scalar_draw(field, bound)
    s = rng.stream(seed, 0)
    while True:
        g = LinearMap(dim, field, [[draw(s) for _ in range(dim)] for _ in range(dim)])
        if linalg.rank(field, g.rows()) == dim:
            return g
