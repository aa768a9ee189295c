"""Skew-symmetric algebras given by structure constants, and linear maps.

An n-dimensional algebra stores one coordinate vector per ordered basis
pair (i, j) with i < j; the skew extension (j, i) -> negation and
(i, i) -> 0 is definitional and never stored. Basis indices are 1-based
throughout, matching the file formats.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul

from . import linalg, rng
from .errors import FieldMismatchError, ShapeError, SingularMatrixError
from .field import Field, Scalar, _canonical, _lift_rows, _unlift

Vector = tuple

# Half-width of the integer range rational random draws take values from.
DEFAULT_BOUND = 10

# Largest output, in entries, that build_matrix (the Hom-Jacobi matrix,
# rows x columns) and transport (n * C(n, 2) structure constants) admit:
# above it the computation would take unbounded time and memory. The
# matrix limit admits n <= 14 (998,816 entries; n = 8 has 28,672), the
# transport limit n <= 126.
MAX_ENTRIES = 1_000_000


class SkewAlgebra:
    """Immutable skew-symmetric algebra over an exact field.

    Every algebra holds the canonical integer lift of its nonzero
    products, ({(i, j): ints}, d), set at construction: the one
    `field._lift_rows` gives for the values (residues and d = 1 over F_p,
    d the lcm of the reduced denominators over Q). `lift` returns it and
    equality compares it. The constructor takes values, checks and
    reduces them, drops the zero pairs and keeps the rest as `constants`;
    `_from_ints` (a transported algebra) makes `constants` on first read.

    `_kernel` keeps the tuple of canonical kernel maps that the first
    `lab.invariance_battery` call for the algebra computes; later calls
    read it. The memo relies on immutability: `constants` must never be
    changed in place.
    """

    __slots__ = ("dim", "field", "_constants", "_lift", "_kernel")

    def __init__(self, dim: int, field: Field, constants: dict):
        field.check(constants.values())
        C = {pair: vec for pair, vec in zip(constants, map(field.vector, constants.values()))
             if any(vec)}
        ints, d = _lift_rows(field, list(C.values()))
        _set_slots(self, (dim, field, C, (dict(zip(C, map(tuple, ints))), d), None))

    @classmethod
    def _from_ints(cls, dim: int, field: Field, C: dict, d: int = 1) -> "SkewAlgebra":
        """The algebra whose constants are C[i, j] / d, for integer vectors
        of length dim and a positive d (1 over F_p), unchecked: the lift
        made canonical by `field._canonical`, with the zero pairs dropped."""
        vecs, d = _canonical(field, C.values(), d)
        lift = {pair: vec for pair, vec in zip(C, vecs) if any(vec)}
        return _set_slots(object.__new__(cls), (dim, field, None, (lift, d), None))

    def __setattr__(self, name, value):
        raise AttributeError("SkewAlgebra is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SkewAlgebra)
            and self.dim == other.dim
            and self.field == other.field
            and self._lift == other._lift
        )

    def __repr__(self):
        return f"SkewAlgebra(dim={self.dim}, field={self.field!r}, products={len(self._lift[0])})"

    def lift(self) -> tuple[dict, int]:
        """({(i, j): ints}, d): the constants as integer tuples over one
        denominator (see `SkewAlgebra`)."""
        return self._lift

    @property
    def constants(self) -> dict:
        """{(i, j): mu(e_i, e_j)} over the pairs i < j with a nonzero
        product, as field values; over Q `Fraction`s sharing one zero when
        made from the lift."""
        C = self._constants
        if C is None:
            ints, d = self._lift
            C = {pair: tuple(_unlift(self.field, vec, d)) for pair, vec in ints.items()}
            object.__setattr__(self, "_constants", C)
        return C

    def zero_vector(self) -> Vector:
        return tuple(self.field.zero for _ in range(self.dim))

    def basis_vector(self, i: int) -> Vector:
        if not 1 <= i <= self.dim:
            raise ShapeError(f"basis index {i} out of range 1..{self.dim}")
        return tuple(self.field.one if k == i - 1 else self.field.zero for k in range(self.dim))

    def multiply(self, x: Vector, y: Vector) -> Vector:
        """Bilinear product of two coordinate vectors: the sum of
        (x_i y_j - x_j y_i) mu(e_i, e_j) over the stored pairs i < j."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ShapeError(f"vectors must have length {n}")
        f = self.field
        f.check((x, y))
        return f.vector(_product(self.constants, x, y, [f.zero] * n))

    def jacobiator(self, x: Vector, y: Vector, z: Vector) -> Vector:
        """mu(mu(x,y),z) + mu(mu(y,z),x) + mu(mu(z,x),y)."""
        a = self.multiply(self.multiply(x, y), z)
        b = self.multiply(self.multiply(y, z), x)
        c = self.multiply(self.multiply(z, x), y)
        return self.field.vector(map(sum, zip(a, b, c)))

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
        is a left group action. Raises SingularMatrixError for singular g,
        and ShapeError, before g is inverted, when the result would have
        more than MAX_ENTRIES constants (`check_transport_size`). It runs
        on the integer lifts of the constants, and on those g and g^-1
        hold (`LinearMap.lift`), and the result keeps the integer product
        as its lift (`_from_ints`).
        """
        _check_same_space(self, g)
        n = self.dim
        check_transport_size(n)
        C, d = self._lift
        inv_cols, e = g.inverse().lift()
        img_cols, h = g.lift()
        pairs = list(combinations(range(1, n + 1), 2))
        mids = [_product(C, inv_cols[i - 1], inv_cols[j - 1], [0] * n) for i, j in pairs]
        moved = dict(zip(pairs, _mat_mul(img_cols, mids)))
        return SkewAlgebra._from_ints(n, self.field, moved, h * d * e * e)


class LinearMap:
    """An endomorphism stored by columns: column q holds f(e_q).

    Every map holds the canonical integer lift of its columns, (ints, d),
    set at construction: the one `field._lift_rows` gives for the values
    (residues and d = 1 over F_p, d the lcm of the reduced denominators
    over Q). `lift` returns it and equality compares it. The constructor
    takes values (files, `from_flat`, `from_entries`, `identity`, `zero`),
    checks and reduces them and keeps them as `columns`; `_from_ints`
    (draws, inverses, `compose`, kernel maps, the battery's conjugated
    maps) makes `columns` on first read.

    `_inverse` is None, except on a map drawn by `random_invertible_map`,
    which keeps the inverse its draw computed so that `inverse` returns
    it without another elimination. Equality ignores it.
    """

    # dim is read off the lift, so a held map takes four slots
    __slots__ = ("field", "_columns", "_lift", "_inverse")

    def __init__(self, dim: int, field: Field, columns):
        if not _is_index(dim) or dim < 0:
            raise ShapeError(f"dimension must be a non-negative integer, got {dim!r}")
        columns = tuple(tuple(col) for col in columns)
        if len(columns) != dim or any(len(col) != dim for col in columns):
            raise ShapeError(f"need {dim} columns of length {dim}")
        field.check(columns)
        columns = tuple(map(field.vector, columns))
        ints, d = _lift_rows(field, columns)
        _set_slots(self, (field, columns, (tuple(map(tuple, ints)), d), None))

    @classmethod
    def _from_ints(cls, field: Field, ints, d: int = 1) -> "LinearMap":
        """The map whose columns are ints / d, for n integer columns of
        length n and a positive d (1 over F_p), unchecked: the lift made
        canonical by `field._canonical`."""
        return _set_slots(object.__new__(cls), (field, None, _canonical(field, ints, d), None))

    def __setattr__(self, name, value):
        raise AttributeError("LinearMap is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.field == other.field
            and self._lift == other._lift
        )

    def __repr__(self):
        return f"LinearMap(dim={self.dim}, field={self.field!r})"

    @property
    def dim(self) -> int:
        return len(self._lift[0])

    @property
    def columns(self) -> tuple:
        """The columns as field values; over Q `Fraction`s sharing one
        zero when made from the lift."""
        cols = self._columns
        if cols is None:
            ints, d = self._lift
            cols = tuple(tuple(_unlift(self.field, col, d)) for col in ints)
            object.__setattr__(self, "_columns", cols)
        return cols

    def lift(self) -> tuple[tuple, int]:
        """(ints, d): the columns as integer tuples over one denominator
        (see `LinearMap`)."""
        return self._lift

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
        for pq, v in entries.items():
            p, q = _position(pq, dim, "entry position")
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

    def flatten(self) -> list:
        """Column-by-column flattening; slot (q-1)*n + (p-1) is a_{p,q}."""
        return [x for col in self.columns for x in col]

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.dim:
            raise ShapeError(f"vector must have length {self.dim}")
        f = self.field
        f.check((v,))
        out = [f.zero] * self.dim
        for vq, col in zip(v, self.columns):
            if vq:
                for p, a in enumerate(col):
                    if a:
                        out[p] += a * vq
        return f.vector(out)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other, multiplied on the lifts of both and built from
        the integer product."""
        _check_same_space(self, other)
        a, da = self.lift()
        b, db = other.lift()
        return LinearMap._from_ints(self.field, _mat_mul(a, b), da * db)

    def inverse(self) -> "LinearMap":
        """The inverse map, built from the lifted inverse `linalg._inverse`
        computes. Its columns are the rows of the inverse of the matrix
        whose rows are self's columns, since (g^T)^-1 = (g^-1)^T. A drawn
        map returns the inverse its draw kept; any other map computes a
        fresh one each call and keeps nothing."""
        if self._inverse is not None:
            return self._inverse
        return LinearMap._from_ints(self.field, *linalg._inverse(*self.lift(), self.field.p))

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for col in self.columns for x in col)


def _product(constants: dict, x, y, out: list) -> list:
    """Add mu(x, y) to out, unreduced: the sum of (x_i y_j - x_j y_i)
    constants[i, j] over the stored pairs i < j."""
    for (i, j), c in constants.items():
        coef = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if coef:
            for k, ck in enumerate(c):
                if ck:
                    out[k] += coef * ck
    return out


def _mat_mul(a_cols, b_cols) -> list:
    """The columns of the product A·B of two matrices given by their
    columns, as unreduced lists of plain values."""
    a_rows = list(zip(*a_cols))
    return [[sum(map(mul, row, col)) for row in a_rows] for col in b_cols]


def check_transport_size(n: int) -> None:
    """Raise ShapeError if transporting an n-dimensional algebra would
    compute more than MAX_ENTRIES structure constants, n * C(n, 2): the
    limit admits n <= 126 (992,250 constants)."""
    constants = n * n * (n - 1) // 2
    if constants > MAX_ENTRIES:
        raise ShapeError(
            f"dimension {n}: the transported algebra would have {constants:,} structure "
            f"constants, above the limit of {MAX_ENTRIES:,}"
        )


def _set_slots(obj, values):
    """obj with its slots set to values, in `__slots__` order; returns obj."""
    for name, value in zip(type(obj).__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def _check_same_space(a, b):
    """Raise unless a and b (algebras or maps) share dimension and field."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.field != b.field:
        raise FieldMismatchError(f"field mismatch: {a.field!r} vs {b.field!r}")


def _is_index(x) -> bool:
    # bool is an int subclass, but JSON true is not a dimension or an index
    return isinstance(x, int) and not isinstance(x, bool)


def _position(pq, dim: int, what: str) -> tuple:
    """pq as a (p, q) tuple of indices in 1..dim; ShapeError otherwise."""
    if not (isinstance(pq, (tuple, list)) and len(pq) == 2
            and all(_is_index(x) and 1 <= x <= dim for x in pq)):
        raise ShapeError(f"{what} {pq!r} is not a pair of indices in 1..{dim}")
    return tuple(pq)


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
        constants[(i, j)] = tuple(field.element(c) for c in coeffs)
    return SkewAlgebra(dim, field, constants)


def _scalar_draw(field: Field, bound: int):
    """draw(stream) -> one random plain value: a uniform residue over a
    prime field, a uniform integer in [-bound, bound] over the rationals."""
    if field.p:
        return lambda s: s.below(field.p)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return lambda s: s.randint(-bound, bound)


def random_algebra(dim: int, field: Field, seed: int, bound: int = DEFAULT_BOUND) -> SkewAlgebra:
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


def random_linear_map(dim: int, field: Field, seed: int, bound: int = DEFAULT_BOUND) -> LinearMap:
    """Seeded random endomorphism, same slot discipline as random_algebra."""
    draw = _scalar_draw(field, bound)
    cols = [[draw(rng.stream(seed, q * dim + p)) for p in range(dim)] for q in range(dim)]
    return LinearMap._from_ints(field, cols)


def random_invertible_map(dim: int, field: Field, seed: int, bound: int = DEFAULT_BOUND) -> LinearMap:
    """Rejection-sample an invertible endomorphism from one (seed) stream.

    Each candidate, drawn as plain integers, is tested by inverting it:
    `linalg._inverse` raises SingularMatrixError exactly when its rank is
    below dim, and then the next candidate is drawn. The accepted map and
    the inverse it keeps (see `LinearMap`) are built from their integer
    lifts, so its `inverse` calls eliminate nothing.
    """
    draw = _scalar_draw(field, bound)
    s = rng.stream(seed, 0)
    while True:
        cols = [[draw(s) for _ in range(dim)] for _ in range(dim)]
        try:
            inv = linalg._inverse(cols, 1, field.p)
        except SingularMatrixError:
            continue
        g = LinearMap._from_ints(field, cols)
        object.__setattr__(g, "_inverse", LinearMap._from_ints(field, *inv))
        return g
