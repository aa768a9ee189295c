"""The Hom-Jacobi linear system of a skew-symmetric algebra.

For an endomorphism f with matrix entries a_{p,q} (the e_p-coordinate of
f(e_q)), the cyclic identity

    mu(mu(e_i,e_j), f(e_k)) + mu(mu(e_j,e_k), f(e_i)) + mu(mu(e_k,e_i), f(e_j)) = 0

over all basis triples i < j < k is linear in the a_{p,q}. Its matrix M has
n^2 (n-1) (n-2) / 6 rows and n^2 columns under the frozen ordering:

    row (T, l)   = rank(T) * n + (l - 1)   for T = (i<j<k) lexicographic,
                                           l = output coordinate 1..n;
    column (p,q) = (q - 1) * n + (p - 1)   for unknown a_{p,q},

matching the column-by-column flattening of f. The entry in row (T, l),
column (p, q) is coordinate l of mu(mu(e_j,e_k), e_p) if q = i, of
mu(mu(e_k,e_i), e_p) if q = j, of mu(mu(e_i,e_j), e_p) if q = k, else 0.

An algebra "is Hom-Lie" when the kernel of M contains a nonzero map; the
zero map is always a solution, so nontriviality is the criterion. With
f = Id it is the Jacobi identity: the algebra is Lie iff Id is in the
kernel. Twisting maps of a given shape only select unknowns:
`restrict_columns` returns the HomJacobiMatrix of the chosen columns, and
`rank`, `nullity` and `kernel_basis` serve it like the full matrix.

`build_matrix` only checks the size and reads the algebra's lift; the matrix
computes its rows lazily, the n rows of one triple at a time, and keeps
them. The rows of a triple need the blocks mu(mu(e_u,e_v), e_p) of its
three pairs. Each block is computed on first use from the n - 1 stored
pairs that contain p, and kept in a block table that every restriction of
the matrix shares. Over Q the algebra's lift is its constants as integers
over their common denominator d; M is quadratic in them, so the rows are
the integers d^2 M, which rank, kernel, membership and the determinant
read.
`int_rows` assembles the kept rows in the frozen order on first read, and
`rows` makes `Fraction`s from them only when read. `rank` and
`kernel_basis` stream the triples, the n cyclic triples first, through one
pass of `linalg._eliminate`, which stops at full column rank: a generic M
is decided by those n^2 rows, and only the blocks of their pairs
{i, i+1} and {i, i+2} are computed. Over Q the cyclic rows are first eliminated modulo one fixed
prime, a one-sided step: full column rank there proves full column rank
of M, and otherwise the exact pass decides, reading the same kept rows.
The matrix keeps the echelon basis of that pass, made by its first
`rank`, `nullity`, `kernel_basis` or `is_in_kernel` call, and every later
call reads it. Membership reads no row of M: at full column rank only the
zero map is in the kernel, and otherwise the pass read every row, so its
at most n^2 pivot rows span the row space and membership is a dot product
with each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain, combinations
from operator import mul

from . import linalg

from .algebra import MAX_ENTRIES, LinearMap, SkewAlgebra, _check_same_space, _position
from .errors import ShapeError
from .field import Field, Scalar, _unlift

# The largest prime below 2^30, so residues stay one CPython digit. Over Q
# the cyclic rows are first eliminated modulo it (see `_echelon`).
_P = 1073741789


def triple_count(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


@cache
def _triples(n: int) -> tuple[tuple, tuple, int]:
    """(triples, order, cyclic): the triples i < j < k of 1..n in
    lexicographic order; their ranks in the order the rows are streamed,
    the cyclic triples {i, i+1, i+2} (indices mod n; one triple for n = 3)
    first and then the others, each part ascending; and the number of
    cyclic triples."""
    triples = tuple(combinations(range(1, n + 1), 3))
    cyclic = {tuple(sorted((i, i % n + 1, (i + 1) % n + 1))) for i in range(1, n + 1)}
    first = [t for t, triple in enumerate(triples) if triple in cyclic]
    rest = [t for t, triple in enumerate(triples) if triple not in cyclic]
    return triples, (*first, *rest), len(first)


class _Blocks(dict):
    """The block table of one algebra: (u, v) -> [mu(mu(e_u,e_v), e_p) for
    p = 1..n], plain values (lifted integers over Q, residues over F_p),
    each block computed on first lookup. mu(x, e_p) is the sum of
    x_i mu(e_i, e_p) over the n - 1 stored pairs that contain p; the (v, u)
    block is the negation of the (u, v) block."""

    def __init__(self, n: int, field: Field, constants: dict):
        super().__init__()
        self.n, self.field, self.constants = n, field, constants
        # p - 1 -> [(i - 1, sign, c)] with mu(e_i, e_p) = sign * c
        self.containing = [[] for _ in range(n)]
        for (i, j), c in constants.items():
            self.containing[j - 1].append((i - 1, 1, c))
            self.containing[i - 1].append((j - 1, -1, c))

    def __missing__(self, uv):
        u, v = uv
        f, n = self.field, self.n
        if u > v:
            blk = [f.vector(-x for x in vec) for vec in self[v, u]]
        else:
            x = self.constants.get(uv, (0,) * n)
            blk = []
            for pairs in self.containing:
                out = [0] * n
                for i, sign, c in pairs:
                    coef = sign * x[i]
                    if coef:
                        for k, ck in enumerate(c):
                            if ck:
                                out[k] += coef * ck
                blk.append(f.vector(out))
        self[uv] = blk
        return blk


class HomJacobiMatrix:
    """Exact matrix of the Hom-Jacobi system, with frozen ordering, whose
    rows are computed one triple at a time. Column c holds the unknown
    a_{p,q}, (p, q) = support[c], in (q, p) order: all n^2 positions, or
    those kept by restrict_columns.

    The entries are int_rows / scale: over Q `int_rows` are integers and
    scale a positive integer, over F_p they are the residues and scale 1.
    The n rows of a triple are computed from the shared block table on
    their first read and kept; `int_rows` and `rows` are views of them
    built on first read. `_echelon_form` keeps the (basis, pivots) of the
    first elimination (see `_echelon`), which `is_in_kernel` reads.
    """

    __slots__ = ("dim", "field", "scale", "support", "_blocks", "_columns", "_triple_rows",
                 "_int_rows", "_rows", "_echelon_form")

    def __init__(self, dim: int, field: Field, blocks: _Blocks, scale: int, support):
        self.dim = dim
        self.field = field
        self.scale = scale
        self.support = support
        self._blocks = blocks
        # q - 1 -> [(c, p - 1)] for the columns c = (p, q) of the support
        self._columns = [[] for _ in range(dim)]
        for c, (p, q) in enumerate(support):
            self._columns[q - 1].append((c, p - 1))
        self._triple_rows = [None] * triple_count(dim)
        self._int_rows = self._rows = self._echelon_form = None

    def _triple(self, t: int) -> list:
        """The n integer rows of the t-th triple (i, j, k) in lexicographic
        order: in column (p, q), coordinate l of the (j, k) block at p if
        q = i, of the (k, i) block if q = j, of the (i, j) block if q = k."""
        rows = self._triple_rows[t]
        if rows is None:
            i, j, k = _triples(self.dim)[0][t]
            rows = [[0] * len(self.support) for _ in range(self.dim)]
            for q, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                columns = self._columns[q - 1]
                if columns:
                    blk = self._blocks[pair]
                    for c, p in columns:
                        for row, x in zip(rows, blk[p]):
                            if x:
                                row[c] = x
            self._triple_rows[t] = rows
        return rows

    def _stream(self, ranks):
        """The rows of the triples of the given lexicographic ranks, in
        that order, each triple computed when the stream reaches it."""
        return chain.from_iterable(map(self._triple, ranks))

    @property
    def int_rows(self) -> list:
        """The integer rows in the frozen order, assembled on first read."""
        if self._int_rows is None:
            self._int_rows = list(self._stream(range(len(self._triple_rows))))
        return self._int_rows

    @property
    def rows(self) -> list:
        """The entries as values of the field; over Q `Fraction`s sharing
        one zero, built on first read."""
        if self._rows is None:
            self._rows = self.int_rows if self.field.p else [
                _unlift(self.field, row, self.scale) for row in self.int_rows]
        return self._rows

    @property
    def nrows(self) -> int:
        return self.dim * len(self._triple_rows)

    @property
    def ncols(self) -> int:
        return len(self.support)

    def __eq__(self, other):
        return (
            isinstance(other, HomJacobiMatrix)
            and self.dim == other.dim
            and self.field == other.field
            and self.support == other.support
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"HomJacobiMatrix(dim={self.dim}, shape={self.nrows}x{self.ncols})"


def check_size(n: int) -> None:
    """Raise ShapeError if the Hom-Jacobi matrix of an n-dimensional algebra
    would have more than MAX_ENTRIES entries."""
    entries = n * triple_count(n) * n * n
    if entries > MAX_ENTRIES:
        raise ShapeError(
            f"dimension {n}: the Hom-Jacobi matrix would have {entries:,} entries, "
            f"above the limit of {MAX_ENTRIES:,}"
        )


def build_matrix(A: SkewAlgebra) -> HomJacobiMatrix:
    """The Hom-Jacobi matrix of an algebra, with no row computed yet.

    For n < 3 there are no triples and the matrix has zero rows (every
    endomorphism is a twisting map). Over Q the algebra's lift holds the
    structure constants as integers over their common denominator d, so
    the rows, computed per triple when first read, are the integers d^2 M. Raises ShapeError above
    MAX_ENTRIES entries.
    """
    n = A.dim
    check_size(n)
    C, d = A.lift()
    support = tuple((p, q) for q in range(1, n + 1) for p in range(1, n + 1))
    return HomJacobiMatrix(n, A.field, _Blocks(n, A.field, C), d * d, support)


def hom_jacobi_defect(A: SkewAlgebra, f: LinearMap) -> list:
    """Cyclic defect vectors, one per basis triple (i<j<k), in lex order.

    Evaluated through the algebra product and f.apply, without the
    matrix; `verify` reports it next to the matrix route's answer.
    """
    _check_same_space(A, f)
    out = []
    for i, j, k in combinations(range(1, A.dim + 1), 3):
        ei, ej, ek = A.basis_vector(i), A.basis_vector(j), A.basis_vector(k)
        a = A.multiply(A.multiply(ei, ej), f.apply(ek))
        b = A.multiply(A.multiply(ej, ek), f.apply(ei))
        c = A.multiply(A.multiply(ek, ei), f.apply(ej))
        out.append(((i, j, k), A.field.vector(map(sum, zip(a, b, c)))))
    return out


def is_in_kernel(A: SkewAlgebra, f: LinearMap, matrix: HomJacobiMatrix | None = None) -> bool:
    """True iff the flattened map is annihilated by the Hom-Jacobi matrix.

    The flattening of the map's integer lift (`LinearMap.lift`) is tested
    against M's echelon basis (see `_echelon`), kept from an earlier rank
    or kernel or computed now: at full column rank the kernel is {0}, and
    otherwise the pivot rows span the row space (the pass read every row),
    so it must be orthogonal to each of them."""
    _check_same_space(A, f)
    M = matrix if matrix is not None else build_matrix(A)
    if M.ncols != f.dim ** 2:
        raise ShapeError(f"vector must have length {M.ncols}")
    v = list(chain.from_iterable(f.lift()[0]))
    p = A.field.p
    basis, pivots = _echelon(M)
    if len(pivots) == M.ncols:
        return not any(v)
    products = (sum(map(mul, row, v)) for row in basis)
    return not any(x % p if p else x for x in products)


@dataclass
class KernelBasis:
    """Canonical basis of twisting maps, read off the RREF of M."""

    maps: list = dc_field(default_factory=list)

    @property
    def nullity(self) -> int:
        return len(self.maps)


def _echelon(M: HomJacobiMatrix) -> tuple[list, list[int]]:
    """(basis, pivots) of `linalg._eliminate` on M's integer rows, streamed
    per triple: those of the cyclic triples {i, i+1, i+2} (indices mod n;
    one triple for n = 3) first, then the other triples in lexicographic
    order. Over Q the cyclic rows are first eliminated mod _P; full column
    rank there proves it over Q (rank mod P <= rank over Q), and that
    result, whose rows callers do not read at full rank, is returned.
    Otherwise the exact pass decides, reading the same kept rows. A pass
    that ends below full rank has read every row, so its basis then spans
    M's row space. The result is kept in M on the first call and returned
    by every later one: `_eliminate` and `_back` never modify the rows
    they read.
    """
    kept = M._echelon_form
    if kept is None:
        _, order, cyclic = _triples(M.dim)
        p = M.field.p
        if not p:
            rows = M._stream(order[:cyclic])
            kept = linalg._eliminate(([x % _P for x in row] for row in rows), M.ncols, _P)
        if kept is None or len(kept[1]) < M.ncols:
            kept = linalg._eliminate(M._stream(order), M.ncols, p)
        M._echelon_form = kept
    return kept


def kernel_basis(M: HomJacobiMatrix) -> KernelBasis:
    """Canonical kernel basis read off the RREF of M's echelon basis; empty,
    with no back-substitution, at full column rank. Each kernel vector
    comes lifted from `linalg._kernel` and is placed through M.support,
    zero elsewhere, into a map built from those integers
    (`LinearMap._from_ints`), whose values are made only when read."""
    n, fld = M.dim, M.field
    slots = [(q - 1) * n + (p - 1) for p, q in M.support]
    maps = []
    for v, d in linalg._kernel(*_echelon(M), M.ncols, fld.p):
        flat = [0] * (n * n)
        for k, x in zip(slots, v):
            flat[k] = x
        maps.append(LinearMap._from_ints(fld, [flat[q * n : (q + 1) * n] for q in range(n)], d))
    return KernelBasis(maps)


def rank(M: HomJacobiMatrix) -> int:
    return len(_echelon(M)[1])


def nullity(M: HomJacobiMatrix) -> int:
    return M.ncols - rank(M)


def determinant(M: HomJacobiMatrix) -> Scalar:
    """Exact determinant of the square case.

    The matrix is square exactly for n = 4 (16 x 16); for n <= 2 it has no
    rows and the empty determinant is 1. Any other size is an error: the
    rank/nullity route decides membership there. It is the Bareiss
    determinant of the integer rows divided by scale^N over Q, reduced
    mod p over F_p.
    """
    if M.nrows and M.nrows != M.ncols:
        raise ShapeError(
            f"matrix is {M.nrows}x{M.ncols}, not square; "
            "the determinant criterion only applies to dimension 4 - use rank instead"
        )
    return _unlift(M.field, [linalg.det_bareiss_int(M.int_rows)], M.scale ** M.nrows)[0]


def is_hom_lie(A: SkewAlgebra) -> tuple[bool, LinearMap | None]:
    """Decide membership and produce a witness twisting map.

    True iff the Hom-Jacobi matrix has nontrivial kernel (the zero map is
    always a solution and does not count). The witness is the first
    canonical kernel basis vector, hence always nonzero.
    """
    basis = kernel_basis(build_matrix(A))
    if basis.nullity == 0:
        return False, None
    return True, basis.maps[0]


def diagonal_support(n: int) -> tuple:
    """Entries (i, i): twisting maps constrained to diagonal form."""
    return tuple((i, i) for i in range(1, n + 1))


def bidiagonal_support(n: int) -> tuple:
    """Diagonal plus superdiagonal: the canonical-form endomorphism shape."""
    out = []
    for i in range(1, n + 1):
        out.append((i, i))
        if i < n:
            out.append((i, i + 1))
    return tuple(out)


def restrict_columns(M: HomJacobiMatrix, support) -> HomJacobiMatrix:
    """Keep only the columns of unknowns a_{p,q} with (p, q) in support.

    Columns follow the (q, p) order and duplicates count once. The result
    shares M's block table and computes its own rows per triple, on the
    chosen columns only. Raises ShapeError for an empty support or a
    position that is not a pair of indices naming a column of M.
    """
    chosen = {_position(pq, M.dim, "support position") for pq in support}
    if not chosen or not chosen <= set(M.support):
        raise ShapeError(f"support {sorted(chosen)} is empty or not within the matrix's columns")
    ordered = tuple(sorted(chosen, key=lambda pq: (pq[1], pq[0])))
    return HomJacobiMatrix(M.dim, M.field, M._blocks, M.scale, ordered)
