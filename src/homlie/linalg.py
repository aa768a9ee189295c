"""Exact dense linear algebra over a Field.

Matrices are lists of row lists of scalars. Pivoting is always "first row
with a nonzero entry in the leftmost unresolved column": with exact
arithmetic no magnitude heuristics are needed and output is deterministic.

Every public function checks its scalars once, on entry, and then works on
plain values: `int` residues reduced mod p over a prime field. Over Q each
row is scaled to integers by the lcm of its denominators, which keeps its
row space, rank and RREF, and elimination runs on Python `int`s; `rref`
and `det` make `Fraction`s only for their results. All row reduction runs
through one core, `_eliminate`, and every determinant is the Bareiss
determinant of the integer lift, `det_bareiss_int`: it is exact over Z,
so over F_p the integer determinant of the residues, reduced mod p, is
the determinant.
"""

from __future__ import annotations

from math import gcd

from .errors import ShapeError, SingularMatrixError
from .field import Field, Scalar, _unlift


def _plain(field: Field, mat: list) -> tuple[int, list]:
    """Checked copy of mat: residues mod p over F_p; over Q every row
    lifted to integers (a nonzero multiple of the row)."""
    field.check(mat)
    p = field.p
    if p:
        return p, [[x % p for x in row] for row in mat]
    return 0, [field.lift(row)[0] for row in mat]


def _eliminate(rows: list, ncols: int, p: int, full: bool) -> list[int]:
    """Row-reduce rows in place; p is the modulus, or 0 over Q.

    Each pivot row is cleared from the rows below it, or from every other
    row when `full` is set (Gauss-Jordan). Over F_p the pivot row is first
    scaled to a leading one, so `full` leaves the RREF. Over Q the rows are
    integers and stay so: a row with entry f in the pivot column becomes
    (a * row - b * top) / content, with a = piv / g, b = f / g and
    g = gcd(piv, f); `full` leaves the RREF up to one nonzero factor per
    row. Returns the pivot columns.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        piv = top[c]
        # columns left of c are zero in the pivot row, so only its tail moves
        if p:
            inv = pow(piv, -1, p)
            top[c:] = [x * inv % p for x in top[c:]]
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
                g = gcd(piv, f)
                a, b = piv // g, f // g
                if a != 1:
                    ri = [a * x for x in ri]
                for j, x in nz:
                    ri[j] -= b * x
                content = gcd(*ri)
                if content > 1:
                    ri = [x // content for x in ri]
                rows[i] = ri
        pivots.append(c)
        r += 1
    return pivots


def rref(field: Field, mat: list) -> tuple[list, list[int]]:
    """Reduced row-echelon form. Returns (rows, pivot_columns).

    Over Q each pivot row is divided by its pivot once, at the end.
    """
    p, rows = _plain(field, mat)
    pivots = _eliminate(rows, len(rows[0]) if rows else 0, p, True)
    if not p:
        rows = [_unlift(field, row, row[pivots[r]] if r < len(pivots) else 1)
                for r, row in enumerate(rows)]
    return rows, pivots


def rank(field: Field, mat: list) -> int:
    """Exact rank by forward elimination (cheaper than full RREF)."""
    p, rows = _plain(field, mat)
    return len(_eliminate(rows, len(rows[0]) if rows else 0, p, False))


def nullspace(field: Field, mat: list, ncols: int) -> list[list]:
    """Canonical kernel basis read off the RREF.

    One vector per free column in ascending column order; the free
    coordinate is 1 and pivot coordinates are back-solved.
    """
    red, pivots = rref(field, mat)
    pivot_set = set(pivots)
    p = field.p
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
    field.check([*mat, v])
    p = field.p
    zero = field.zero
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in mat:
        acc = sum((row[j] * x for j, x in nz if row[j]), zero)
        out.append(acc % p if p else acc)
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

    The matrix is lifted to integers row by row and handed to Bareiss; over
    Q the product of the row denominators is divided out at the end, over
    F_p the result is reduced mod p.
    """
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ShapeError("determinant needs a square matrix")
    field.check(mat)
    scale = 1
    lifted = []
    for row in mat:
        ints, d = field.lift(row)
        scale *= d
        lifted.append(ints)
    return _unlift(field, [det_bareiss_int(lifted)], scale)[0]
