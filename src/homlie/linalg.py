"""Exact dense linear algebra over a Field.

Matrices are lists of row lists of scalars. Every public function checks
its scalars once, on entry, and then works on plain values: `int`
residues reduced mod p over a prime field. Over Q each row is scaled to
integers by the lcm of its denominators, which keeps its row space, rank
and RREF, and elimination runs on Python `int`s; `rref` and `det` make
`Fraction`s only for their results. All row reduction is one streaming
pass, `_eliminate`, which reads rows until it has a pivot in every
column: rank and a trivial kernel take no more and never back-substitute,
and `rref` back-substitutes its at most ncols pivot rows afterwards (the
RREF depends only on the row space). The kernel core `_kernel` and the
inverse core `_inverse` work on integer rows and return their results
lifted, for callers that hold integers; `nullspace` is the kernel's field
values, and `algebra.LinearMap.inverse` builds a map from the inverse's
lift. Every determinant is the Bareiss
determinant of the integer lift, `det_bareiss_int`: it is exact over Z,
so over F_p the integer determinant of the residues, reduced mod p, is
the determinant.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ShapeError, SingularMatrixError
from .field import Field, Scalar, _lift_rows, _unlift


def _plain(field: Field, mat: list) -> tuple[int, object]:
    """Check mat and stream its rows as plain values: residues mod p over
    F_p; over Q every row lifted to integers (a nonzero multiple of it)."""
    field.check(mat)
    p = field.p
    if p:
        return p, ([x % p for x in row] for row in mat)
    return 0, (field.lift(row)[0] for row in mat)


def _eliminate(rows, ncols: int, p: int) -> tuple[list, list[int]]:
    """(basis, pivots): an echelon basis of the plain rows of an iterable,
    read one at a time and never modified, until there are ncols pivots;
    p is the modulus, or 0 over Q. basis[k] leads in column pivots[k] and is
    zero in the columns pivots[:k]. Each row is cleared by the pivot rows
    found so far, in that order, and a nonzero remainder becomes a pivot
    row, with a leading one over F_p. Over Q rows stay integers: clearing by
    a row top with pivot piv from a row with entry f gives (a * row - b *
    top) / content, a = piv / g, b = f / g, g = gcd(piv, f), a primitive
    multiple of a vector of minors of the input."""
    basis, pivots, clearing = [], [], []
    for row in rows:
        row = list(row)
        for c, piv, nz in clearing:
            f = row[c]
            if not f:
                continue
            if p:
                for j, x in nz:
                    row[j] = (row[j] - f * x) % p
            else:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                if a != 1:
                    row = [a * x for x in row]
                for j, x in nz:
                    row[j] -= b * x
                content = gcd(*row)
                if content > 1:
                    row = [x // content for x in row]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        if p and row[c] != 1:
            inv = pow(row[c], -1, p)
            row[c:] = [x * inv % p for x in row[c:]]
        basis.append(row)
        pivots.append(c)
        clearing.append((c, row[c], [(j, row[j]) for j in range(c, ncols) if row[j]]))
        if len(pivots) == ncols:
            break
    return basis, pivots


def _back(basis: list, pivots: list[int], p: int) -> tuple[list, list[int]]:
    """(rows, pivots), ascending pivots: the RREF of an echelon basis from
    `_eliminate`, each row a multiple of its RREF row by its pivot (1 over
    F_p). The same pass over the basis from the last pivot to the first
    clears each pivot column above."""
    order = sorted(range(len(pivots)), key=pivots.__getitem__, reverse=True)
    red, pivots = _eliminate([basis[k] for k in order], len(basis[0]) if basis else 0, p)
    return red[::-1], pivots[::-1]


def _kernel(basis: list, pivots: list[int], ncols: int, p: int) -> list[tuple[list, int]]:
    """Canonical kernel basis from an echelon basis of `_eliminate`, empty
    at full column rank with no back-substitution: one vector per free
    column, ascending, with free coordinate 1 and the rest off the RREF,
    each as its lift (ints, d). `_back`'s row for pivot c is piv times its
    RREF row, so coordinate c is -row[free] / piv; over Q d is the lcm of
    the reduced denominators piv / gcd(piv, row[free]), the canonical lift,
    and over F_p the ints are residues and d is 1."""
    if len(pivots) == ncols:
        return []
    red, pivots = _back(basis, pivots, p)
    out = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        if p:
            d = v[free] = 1
            for row, c in zip(red, pivots):
                v[c] = -row[free] % p
        else:
            d = v[free] = lcm(*(row[c] // gcd(row[c], row[free]) for row, c in zip(red, pivots)))
            for row, c in zip(red, pivots):
                v[c] = -row[free] * d // row[c]
        out.append((v, d))
    return out


def rref(field: Field, mat: list) -> tuple[list, list[int]]:
    """Reduced row-echelon form. Returns (rows, pivot_columns); the rows
    past the rank are zero. Over Q each pivot row is divided by its pivot
    once, at the end."""
    ncols = len(mat[0]) if mat else 0
    p, rows = _plain(field, mat)
    red, pivots = _back(*_eliminate(rows, ncols, p), p)
    red = [_unlift(field, row, row[c]) for row, c in zip(red, pivots)]
    return red + [_unlift(field, [0] * ncols) for _ in range(len(mat) - len(red))], pivots


def rank(field: Field, mat: list) -> int:
    """Exact rank by one forward pass, with no back-substitution."""
    p, rows = _plain(field, mat)
    return len(_eliminate(rows, len(mat[0]) if mat else 0, p)[1])


def nullspace(field: Field, mat: list, ncols: int) -> list[list]:
    """Canonical kernel basis read off the RREF: the values of `_kernel`'s
    lifts."""
    p, rows = _plain(field, mat)
    return [_unlift(field, v, d) for v, d in _kernel(*_eliminate(rows, ncols, p), ncols, p)]


def identity(field: Field, n: int) -> list:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_vec(field: Field, mat: list, v: list) -> list:
    field.check([*mat, v])
    p = field.p
    zero = field.zero
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in mat:
        acc = sum((row[j] * x for j, x in nz if row[j]), zero)
        out.append(acc % p if p else acc)
    return out


def _inverse(rows: list, d: int, p: int) -> tuple[list, int]:
    """(ints, e): the inverse of the square matrix rows / d, lifted. rows
    are integer rows and d a positive integer (any integers and d = 1 over
    F_p). Over Q the inverse is ints / e with e the lcm of its entries'
    reduced denominators, the lift `field._lift_rows` gives; over F_p ints
    are residues and e is 1. One Gauss-Jordan pass: `_eliminate` and
    `_back` on [rows | d·I], whose RREF is [I | (rows / d)^-1]. Raises
    SingularMatrixError when a pivot falls in the right-hand block, which
    happens exactly when the rank of rows is below n."""
    n = len(rows)
    if p:
        rows = [[x % p for x in row] for row in rows]
    aug = [[*row, *[0] * k, d, *[0] * (n - 1 - k)] for k, row in enumerate(rows)]
    basis, pivots = _eliminate(aug, 2 * n, p)
    if any(c >= n for c in pivots):
        raise SingularMatrixError("matrix is singular")
    red, _ = _back(basis, pivots, p)
    if p:
        return [row[n:] for row in red], 1
    # row k is piv·(e_k, x): the entries x / piv have denominators dividing
    # piv / gcd(row), and e is the lcm of those
    e = lcm(*(row[k] // gcd(*row) for k, row in enumerate(red)))
    return [[x * e // row[k] for x in row[n:]] for k, row in enumerate(red)], e


def det_bareiss_int(mat: list) -> int:
    """Fraction-free Bareiss determinant of an integer matrix.

    All interior divisions are exact (each intermediate entry is a minor
    of the input), so entry growth stays determinant-sized.
    """
    m = [[int(x) for x in row] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (pkk * mi[j] - mik * mk[j]) // prev
        prev = pkk
    return sign * m[n - 1][n - 1]


def det(field: Field, mat: list) -> Scalar:
    """Exact determinant; empty matrix has determinant one.

    The matrix is lifted to integers by one common denominator d and handed
    to Bareiss; over Q d^n is divided out at the end, over F_p the result is
    reduced mod p.
    """
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ShapeError("determinant needs a square matrix")
    field.check(mat)
    lifted, d = _lift_rows(field, mat)
    return _unlift(field, [det_bareiss_int(lifted)], d ** n)[0]
