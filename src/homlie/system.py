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

`build_matrix` computes each block mu(mu(e_u,e_v), e_p) once and refuses
matrices above MAX_ENTRIES entries. Over Q it lifts the constants to
integers by their common denominator d; M is quadratic in them, so it
stores the integer rows d^2 M, which rank, kernel, membership and the
determinant read; `rows` makes `Fraction`s only when read. `rank` and
`kernel_basis` stream the integer rows, the n^2 rows of the n cyclic
triples first, through one pass of `linalg._eliminate`, which stops at
full column rank: a generic M is decided by those first rows. Over Q the
cyclic rows are first eliminated modulo one fixed prime, a one-sided
step: full column rank there proves full column rank of M, and otherwise
the exact pass decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from operator import mul

from . import linalg

from .algebra import (LinearMap, SkewAlgebra, _check_same_space, _lift_constants, _position,
                      _product)
from .errors import ShapeError
from .field import Field, Scalar, _unlift

# Largest matrix build_matrix allocates, in entries (rows x columns): above
# it the dense matrix and its elimination would take unbounded memory. The
# limit admits n <= 14 (998,816 entries); n = 8 has 28,672.
MAX_ENTRIES = 1_000_000

# The largest prime below 2^30, so residues stay one CPython digit. Over Q
# the cyclic rows are first eliminated modulo it (see `_echelon`).
_P = 1073741789


def triple_count(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


class HomJacobiMatrix:
    """Dense exact matrix of the Hom-Jacobi system, with frozen ordering.
    Column c holds the unknown a_{p,q}, (p, q) = support[c], in (q, p)
    order: all n^2 positions, or those kept by restrict_columns.

    The entries are int_rows / scale: over Q `int_rows` are integers and
    scale a positive integer, over F_p they are the residues and scale 1.
    """

    __slots__ = ("dim", "field", "int_rows", "scale", "support", "_rows")

    def __init__(self, dim: int, field: Field, int_rows, scale: int, support):
        self.dim = dim
        self.field = field
        self.int_rows = int_rows
        self.scale = scale
        self.support = support
        self._rows = int_rows if field.p else None

    @property
    def rows(self) -> list:
        """The entries as values of the field; over Q `Fraction`s sharing
        one zero, built on first read."""
        if self._rows is None:
            self._rows = [_unlift(self.field, row, self.scale) for row in self.int_rows]
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self.int_rows)

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
    """Assemble the Hom-Jacobi matrix of an algebra.

    For n < 3 there are no triples and the matrix has zero rows (every
    endomorphism is a twisting map). Each block mu(mu(e_u,e_v), e_p) is
    computed once, for u < v, with the algebra product of the stored
    mu(e_u, e_v) and e_p; the (v, u) block is its negation. Over Q the
    blocks are computed on the constants lifted by their common
    denominator d, so the rows are the integers d^2 M. Raises ShapeError
    above MAX_ENTRIES entries, before allocating anything.
    """
    n = A.dim
    check_size(n)
    f = A.field
    C, d = _lift_constants(A)
    units = [[int(k == p) for k in range(n)] for p in range(n)]
    blocks = {}
    for u, v in combinations(range(1, n + 1), 2):
        cuv = C.get((u, v), [0] * n)
        blocks[u, v] = [f.vector(_product(C, cuv, e, [0] * n)) for e in units]
        blocks[v, u] = [f.vector(-x for x in blk) for blk in blocks[u, v]]
    triples = list(combinations(range(1, n + 1), 3))
    rows = [[0] * (n * n) for _ in range(len(triples) * n)]
    for t, (i, j, k) in enumerate(triples):
        out = rows[t * n : (t + 1) * n]
        for q, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            col = (q - 1) * n
            for blk in blocks[pair]:
                for row, x in zip(out, blk):
                    if x:
                        row[col] = x
                col += 1
    support = tuple((p, q) for q in range(1, n + 1) for p in range(1, n + 1))
    return HomJacobiMatrix(n, f, rows, d * d, support)


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
    """True iff the flattened map is annihilated by the Hom-Jacobi matrix:
    the lifted flattening (checked when the map was made) dotted with the
    integer rows, up to the first nonzero product."""
    _check_same_space(A, f)
    M = matrix if matrix is not None else build_matrix(A)
    if M.ncols != f.dim ** 2:
        raise ShapeError(f"vector must have length {M.ncols}")
    v, _ = A.field.lift(f.flatten())
    p = A.field.p
    products = (sum(map(mul, row, v)) for row in M.int_rows)
    return not any(x % p if p else x for x in products)


@dataclass
class KernelBasis:
    """Canonical basis of twisting maps, read off the RREF of M."""

    maps: list = dc_field(default_factory=list)

    @property
    def nullity(self) -> int:
        return len(self.maps)


def _echelon(M: HomJacobiMatrix) -> tuple[list, list[int]]:
    """(basis, pivots) of `linalg._eliminate` on M's integer rows: those of
    the cyclic triples {i, i+1, i+2} (indices mod n; one triple for n = 3)
    first, then the other triples in lexicographic order. Over Q the cyclic
    rows are first eliminated mod _P; full column rank there proves it over
    Q (rank mod P <= rank over Q), and that result, whose rows callers do
    not read at full rank, is returned. Otherwise the exact pass decides.
    """
    n, p = M.dim, M.field.p
    cyclic = {tuple(sorted((i, i % n + 1, (i + 1) % n + 1))) for i in range(1, n + 1)}
    first, rest = [], []
    for t, triple in enumerate(combinations(range(1, n + 1), 3)):
        (first if triple in cyclic else rest).extend(M.int_rows[t * n : (t + 1) * n])
    if not p:
        mod_p = linalg._eliminate(([x % _P for x in row] for row in first), M.ncols, _P)
        if len(mod_p[1]) == M.ncols:
            return mod_p
    return linalg._eliminate(first + rest, M.ncols, p)


def kernel_basis(M: HomJacobiMatrix) -> KernelBasis:
    """Canonical kernel basis read off the RREF of M's echelon basis; empty,
    with no back-substitution, at full column rank. Each kernel vector
    becomes a map through M.support, zero elsewhere."""
    n = M.dim
    maps = []
    for v in linalg._kernel(M.field, *_echelon(M), M.ncols):
        flat = [M.field.zero] * (n * n)
        for (p, q), x in zip(M.support, v):
            flat[(q - 1) * n + (p - 1)] = x
        maps.append(LinearMap.from_flat(n, M.field, flat))
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

    Columns follow the (q, p) order and duplicates count once. Raises
    ShapeError for an empty support or a position that is not a pair of
    indices naming a column of M.
    """
    index = {pq: c for c, pq in enumerate(M.support)}
    chosen = {_position(pq, M.dim, "support position") for pq in support}
    if not chosen or not chosen <= index.keys():
        raise ShapeError(f"support {sorted(chosen)} is empty or not within the matrix's columns")
    ordered = tuple(sorted(chosen, key=lambda pq: (pq[1], pq[0])))
    cols = [index[pq] for pq in ordered]
    rows = [[row[c] for c in cols] for row in M.int_rows]
    return HomJacobiMatrix(M.dim, M.field, rows, M.scale, ordered)
