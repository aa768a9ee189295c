"""Exact dense linear algebra over a Field.

Matrices are lists of row lists of scalars. Pivoting is always "first row
with a nonzero entry in the leftmost unresolved column": with exact
arithmetic no magnitude heuristics are needed and output is deterministic.

Every public function checks its scalars once, on entry, and then works on
plain values: `int` residues reduced mod p over a prime field, `Fraction`s
over Q. All row reduction runs through one core, `_eliminate`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import FieldMismatchError, ShapeError, SingularMatrixError
from .field import Field, PrimeField, Scalar


def _modulus(field: Field, mat: list) -> int:
    """Check every scalar of mat once; return p over F_p and 0 over Q."""
    prime = isinstance(field, PrimeField)
    allowed = {int} if prime else {int, Fraction}
    for row in mat:
        if not allowed.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) not in allowed)
            raise FieldMismatchError(f"not a scalar of {field!r}: {bad!r}")
    return field.p if prime else 0


def _plain(field: Field, mat: list) -> tuple[int, list]:
    """Checked copy of mat: residues mod p over F_p, `Fraction`s over Q.

    Over Q every `int` becomes a `Fraction`, so no later division is
    int / int.
    """
    p = _modulus(field, mat)
    if p:
        return p, [[x % p for x in row] for row in mat]
    return 0, [[x if type(x) is Fraction else Fraction(x) for x in row] for row in mat]


def _eliminate(rows: list, ncols: int, p: int, full: bool) -> tuple[list[int], list, int]:
    """Row-reduce rows in place; p is the modulus, or 0 over Q.

    Each pivot row is scaled to a leading one and cleared from the rows
    below it, or from every other row when `full` is set (Gauss-Jordan,
    leaving the RREF). Returns (pivot columns, pivot values before
    scaling, number of row swaps).
    """
    nrows = len(rows)
    pivots, values = [], []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        top = rows[r]
        piv = top[c]
        # columns left of c are zero in the pivot row, so only its tail moves
        if p:
            inv = pow(piv, -1, p)
            top[c:] = [x * inv % p for x in top[c:]]
        else:
            inv = 1 / piv
            top[c:] = [x * inv if x else x for x in top[c:]]
        nz = [(j, top[j]) for j in range(c, ncols) if top[j]]
        for i in range(0 if full else r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if not f or i == r:
                continue
            if p:
                for j, x in nz:
                    ri[j] = (ri[j] - f * x) % p
            else:
                for j, x in nz:
                    ri[j] -= f * x
        pivots.append(c)
        values.append(piv)
        r += 1
    return pivots, values, swaps


def rref(field: Field, mat: list) -> tuple[list, list[int]]:
    """Reduced row-echelon form. Returns (rows, pivot_columns)."""
    p, rows = _plain(field, mat)
    pivots, _, _ = _eliminate(rows, len(rows[0]) if rows else 0, p, True)
    return rows, pivots


def rank(field: Field, mat: list) -> int:
    """Exact rank by forward elimination (cheaper than full RREF)."""
    p, rows = _plain(field, mat)
    return len(_eliminate(rows, len(rows[0]) if rows else 0, p, False)[0])


def nullspace(field: Field, mat: list, ncols: int) -> list[list]:
    """Canonical kernel basis read off the RREF.

    One vector per free column in ascending column order; the free
    coordinate is 1 and pivot coordinates are back-solved.
    """
    red, pivots = rref(field, mat)
    pivot_set = set(pivots)
    p = field.p if isinstance(field, PrimeField) else 0
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for r, c in enumerate(pivots):
            v[c] = -red[r][free] % p if p else -red[r][free]
        basis.append(v)
    return basis


def identity(field: Field, n: int) -> list:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_vec(field: Field, mat: list, v: list) -> list:
    p = _modulus(field, [*mat, v])
    zero = field.zero
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in mat:
        acc = sum((row[j] * x for j, x in nz if row[j]), zero)
        out.append(acc % p if p else acc)
    return out


def mat_mul(field: Field, a: list, b: list) -> list:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for s in range(k):
            f = ai[s]
            if f == field.zero:
                continue
            bs = b[s]
            for j in range(m):
                oi[j] = field.add(oi[j], field.mul(f, bs[j]))
    return out


def inverse(field: Field, mat: list) -> list:
    """Inverse via Gauss-Jordan on the augmented matrix."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ShapeError("inverse needs a square matrix")
    aug = [list(row) + e for row, e in zip(mat, identity(field, n))]
    red, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in red]


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

    Over F_p it is the signed product of the elimination pivots. Rational
    matrices are lifted to integers row by row (common denominator) and
    handed to Bareiss.
    """
    n = len(mat)
    if n == 0:
        return field.one
    if any(len(r) != n for r in mat):
        raise ShapeError("determinant needs a square matrix")
    p, rows = _plain(field, mat)
    if p:
        pivots, values, swaps = _eliminate(rows, n, p, False)
        if len(pivots) < n:
            return 0
        return (-1) ** swaps * prod(values) % p
    # rational: clear denominators, integer Bareiss, undo the row scaling
    scale = 1
    lifted = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        lifted.append([x.numerator * (mult // x.denominator) for x in row])
    return Fraction(det_bareiss_int(lifted), scale)
