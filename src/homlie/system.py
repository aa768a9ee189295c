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
zero map is always a solution, so nontriviality is the criterion.

`build_matrix` computes each block mu(mu(e_u,e_v), e_p) once and refuses
matrices above MAX_ENTRIES entries. `rank` and `kernel_basis` first try a
one-sided certificate: a nonsingular n^2 x n^2 minor on the rows of the n
cyclic triples proves nullity 0 (over Q, via its image mod one fixed
prime). Otherwise the full exact elimination decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from . import linalg
from .algebra import LinearMap, SkewAlgebra, Vector, _check_compatible
from .errors import ShapeError
from .field import Field, PrimeField, Scalar

# Largest matrix build_matrix allocates, in entries (rows x columns): above
# it the dense matrix and its elimination would take unbounded memory. The
# limit admits n <= 14 (998,816 entries); n = 8 has 28,672.
MAX_ENTRIES = 1_000_000

# The largest prime below 2^30, so residues stay one CPython digit. Over Q
# the full-rank certificate eliminates the cyclic minor modulo it.
_CERTIFICATE_FIELD = PrimeField(1073741789)


def triple_count(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


class HomJacobiMatrix:
    """Dense exact matrix of the Hom-Jacobi system, with frozen ordering."""

    __slots__ = ("dim", "field", "rows", "triples")

    def __init__(self, dim: int, field: Field, rows, triples):
        self.dim = dim
        self.field = field
        self.rows = rows
        self.triples = triples

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.dim * self.dim

    def __eq__(self, other):
        return (
            isinstance(other, HomJacobiMatrix)
            and self.dim == other.dim
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"HomJacobiMatrix(dim={self.dim}, shape={self.nrows}x{self.ncols})"

    def apply(self, flat) -> list:
        """M times a flattened endomorphism vector."""
        if len(flat) != self.ncols:
            raise ShapeError(f"vector must have length {self.ncols}")
        return linalg.mat_vec(self.field, self.rows, flat)


def product_block(A: SkewAlgebra, i: int, j: int, k: int) -> Vector:
    """mu(mu(e_i,e_j), e_k) straight from the structure constants.

    Coordinate l is sum_s C_{i,j}^s C_{s,k}^l with the skew extension for
    unordered index pairs.
    """
    f = A.field
    out = [f.zero] * A.dim
    for s, cs in enumerate(A.structure_vector(i, j), 1):
        if cs and s != k:
            for l, x in enumerate(A.structure_vector(s, k)):
                if x:
                    out[l] += cs * x
    return f.vector(out)


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
    computed once, for u < v; the (v, u) block is its negation. Raises
    ShapeError above MAX_ENTRIES entries, before allocating anything.
    """
    n = A.dim
    check_size(n)
    f = A.field
    zero = f.zero
    blocks = {}
    for u, v in combinations(range(1, n + 1), 2):
        blocks[u, v] = [product_block(A, u, v, p) for p in range(1, n + 1)]
        blocks[v, u] = [f.vector(-x for x in blk) for blk in blocks[u, v]]
    triples = list(combinations(range(1, n + 1), 3))
    rows = [[zero] * (n * n) for _ in range(len(triples) * n)]
    for t, (i, j, k) in enumerate(triples):
        out = rows[t * n : (t + 1) * n]
        for q, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            col = (q - 1) * n
            for blk in blocks[pair]:
                for row, x in zip(out, blk):
                    if x:
                        row[col] = x
                col += 1
    return HomJacobiMatrix(n, f, rows, triples)


def hom_jacobi_defect(A: SkewAlgebra, f: LinearMap) -> list:
    """Cyclic defect vectors, one per basis triple (i<j<k), in lex order.

    Evaluated directly through the algebra product, independently of
    build_matrix; used as the oracle for the matrix route.
    """
    _check_compatible(A, f)
    out = []
    for i, j, k in combinations(range(1, A.dim + 1), 3):
        ei, ej, ek = A.basis_vector(i), A.basis_vector(j), A.basis_vector(k)
        a = A.multiply(A.multiply(ei, ej), f.apply(ek))
        b = A.multiply(A.multiply(ej, ek), f.apply(ei))
        c = A.multiply(A.multiply(ek, ei), f.apply(ej))
        out.append(((i, j, k), A.field.vector(map(sum, zip(a, b, c)))))
    return out


def is_in_kernel(A: SkewAlgebra, f: LinearMap, matrix: HomJacobiMatrix | None = None) -> bool:
    """True iff the flattened map is annihilated by the Hom-Jacobi matrix."""
    _check_compatible(A, f)
    M = matrix if matrix is not None else build_matrix(A)
    zero = A.field.zero
    return all(x == zero for x in M.apply(f.flatten()))


@dataclass
class KernelBasis:
    """Canonical basis of twisting maps, read off the RREF of M."""

    dim: int
    maps: list = dc_field(default_factory=list)

    @property
    def nullity(self) -> int:
        return len(self.maps)


def _full_rank_certified(M: HomJacobiMatrix) -> bool:
    """True only if M provably has full column rank n^2.

    The row blocks of the n cyclic triples {i, i+1, i+2} (indices mod n),
    distinct for n >= 4, form a square n^2 x n^2 submatrix S, and a
    nonsingular S gives M full column rank. Over F_p, S is eliminated as it
    is. Over Q it is reduced mod a fixed prime P, unless P divides a
    denominator: rank_P(S mod P) <= rank_Q(S) <= rank_Q(M). False means
    "not certified", never "rank deficient".
    """
    n = M.dim
    if n < 4:
        return False
    S = []
    for i in range(1, n + 1):
        t = M.triples.index(tuple(sorted((i, i % n + 1, (i + 1) % n + 1))))
        S += M.rows[t * n : (t + 1) * n]
    if M.field.p:
        return linalg.rank(M.field, S) == n * n
    M.field.check(S)
    P = _CERTIFICATE_FIELD.p
    if any(x.denominator % P == 0 for row in S for x in row):
        return False
    S = [[x.numerator * pow(x.denominator, -1, P) % P if x.denominator != 1 else x.numerator % P
          for x in row] for row in S]
    return linalg.rank(_CERTIFICATE_FIELD, S) == n * n


def kernel_basis(M: HomJacobiMatrix) -> KernelBasis:
    """Canonical kernel basis via exact Gauss-Jordan elimination; empty,
    with only the cyclic minor eliminated, when that certifies full rank."""
    if _full_rank_certified(M):
        return KernelBasis(M.dim)
    vectors = linalg.nullspace(M.field, M.rows, M.ncols)
    maps = [LinearMap.from_flat(M.dim, M.field, v) for v in vectors]
    return KernelBasis(M.dim, maps)


def rank(M: HomJacobiMatrix) -> int:
    if _full_rank_certified(M):
        return M.ncols
    return linalg.rank(M.field, M.rows)


def nullity(M: HomJacobiMatrix) -> int:
    return M.ncols - rank(M)


def determinant(M: HomJacobiMatrix) -> Scalar:
    """Exact determinant of the square case.

    The matrix is square exactly for n = 4 (16 x 16); for n <= 2 it has no
    rows and the empty determinant is 1. Any other size is an error: the
    rank/nullity route decides membership there.
    """
    if M.nrows == 0:
        return M.field.one
    if M.nrows != M.ncols:
        raise ShapeError(
            f"matrix is {M.nrows}x{M.ncols}, not square; "
            "the determinant criterion only applies to dimension 4 - use rank instead"
        )
    return linalg.det(M.field, M.rows)


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


@dataclass
class RestrictedSystem:
    """Columns of M for unknowns in a support pattern, in (q, p) lex order."""

    dim: int
    field: Field
    support: tuple
    rows: list

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.support)

    def rank(self) -> int:
        return linalg.rank(self.field, self.rows)

    def kernel(self) -> list:
        """Canonical nullspace vectors, one scalar per support position."""
        return linalg.nullspace(self.field, self.rows, self.ncols)

    def extend(self, coeffs) -> LinearMap:
        """Zero-pad a solution of the restricted system to a full map."""
        if len(coeffs) != self.ncols:
            raise ShapeError(f"need {self.ncols} coefficients")
        entries = {pq: c for pq, c in zip(self.support, coeffs)}
        return LinearMap.from_entries(self.dim, self.field, entries)


def restrict_columns(M: HomJacobiMatrix, support) -> RestrictedSystem:
    """Keep only the columns of unknowns a_{p,q} with (p, q) in support."""
    n = M.dim
    support = set(support)
    if not support:
        raise ShapeError("support pattern is empty")
    for p, q in support:
        if not (1 <= p <= n and 1 <= q <= n):
            raise ShapeError(f"support position {(p, q)} out of range 1..{n}")
    ordered = tuple(sorted(support, key=lambda pq: (pq[1], pq[0])))
    cols = [(q - 1) * n + (p - 1) for p, q in ordered]
    rows = [[row[c] for c in cols] for row in M.rows]
    return RestrictedSystem(n, M.field, ordered, rows)
