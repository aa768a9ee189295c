"""Independent oracles used to cross-check the library's main code paths.

Nothing here shares algorithms with src/homlie: the determinant oracle is
Laplace expansion (memoized on column subsets), naive fraction and mod-p
row reduction back the rank checks, the algebra product is the full
double sum over basis pairs, and defects are recomputed from first
principles where needed.
"""

from fractions import Fraction


def det_cofactor_modp(rows, p: int) -> int:
    """Determinant mod p by cofactor expansion along last rows.

    Memoizes on the set of still-available columns, so the sub-minors of
    the expansion are shared: O(n * 2^n) ring operations instead of n!.
    """
    n = len(rows)
    M = [[int(x) % p for x in row] for row in rows]
    memo = {0: 1 % p}

    def minor(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        r = bin(mask).count("1") - 1
        total = 0
        # cofactor sign at (row r, j-th available column) is (-1)^(r + j)
        sign = -1 if r % 2 else 1
        for c in range(n):
            bit = 1 << c
            if not mask & bit:
                continue
            a = M[r][c]
            if a:
                total = (total + sign * a * minor(mask ^ bit)) % p
            sign = -sign
        memo[mask] = total
        return total

    full = (1 << n) - 1
    # iterative fill by popcount keeps recursion depth flat for n = 16
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            minor(mask)
    return memo[full]


def det_naive(rows) -> Fraction:
    """Plain Laplace expansion over Q; only for tiny matrices."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [[row[j] for j in range(n) if j != c] for row in rows[1:]]
        total += (-1) ** c * Fraction(rows[0][c]) * det_naive(minor)
    return total


def rank_fraction(rows) -> int:
    """Rank over Q by straightforward fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def rank_det_modp(rows, p: int) -> tuple[int, int]:
    """Rank and determinant mod p by plain row reduction.

    Pivot rows are never rescaled; the multiplier uses a Fermat inverse.
    The determinant is 0 unless the matrix is square of full rank.
    """
    m = [[int(x) % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    d = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            d = -d
        d = d * m[r][c] % p
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r, (d % p if r == nrows == ncols else 0)


def skew_product(constants, n: int, x, y, p: int = 0) -> list:
    """mu(x, y) = sum over all i != j of x_i y_j mu(e_i, e_j).

    constants maps (i, j), 1-based with i < j, to mu(e_i, e_j); the
    missing half comes from mu(e_j, e_i) = -mu(e_i, e_j). Exact over Q
    (p = 0, in `Fraction`s) or reduced mod p.
    """
    out = [Fraction(0)] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or not (x[i - 1] and y[j - 1]):
                continue
            if (i, j) in constants:
                c, sign = constants[(i, j)], 1
            elif (j, i) in constants:
                c, sign = constants[(j, i)], -1
            else:
                continue
            w = sign * Fraction(x[i - 1]) * Fraction(y[j - 1])
            out = [o + w * ck for o, ck in zip(out, c)]
    return [int(v) % p for v in out] if p else out


def mat_vec(rows, v, p: int = 0) -> list:
    """Plain matrix-vector product, exact over Q (p = 0) or mod p."""
    out = [sum((Fraction(a) * Fraction(b) for a, b in zip(row, v)), Fraction(0)) for row in rows]
    return [int(x) % p for x in out] if p else out


def rref_fraction(rows) -> tuple[list, list]:
    """Reduced row-echelon form over Q by plain fraction Gauss-Jordan.

    Returns (rows, pivot columns); every entry is a `Fraction`.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace_fraction(rows, ncols: int) -> list:
    """Kernel basis over Q, one vector per free column of the RREF (free
    coordinate 1, other free coordinates 0)."""
    red, pivots = rref_fraction(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def nullspace_modp(rows, ncols: int, p: int) -> list:
    """Kernel basis mod p by plain Gauss-Jordan, one vector per free column
    of the RREF (free coordinate 1, other free coordinates 0)."""
    m = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [a * inv % p for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -m[r][free] % p
        basis.append(v)
    return basis


def det_fraction(rows) -> Fraction:
    """Determinant over Q by fraction elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def hom_jacobi_rows(constants, n: int) -> list:
    """The Hom-Jacobi matrix over Q from its definition, in `Fraction`s.

    Row (T, l) for the T-th triple i < j < k in lex order, column
    (q - 1) * n + (p - 1): coordinate l of mu(mu(e_j,e_k), e_p) if q = i,
    of mu(mu(e_k,e_i), e_p) if q = j, of mu(mu(e_i,e_j), e_p) if q = k.
    """
    def e(i):
        return [int(k == i) for k in range(1, n + 1)]

    blocks = {}

    def block(a, b, p):
        if (a, b, p) not in blocks:
            blocks[a, b, p] = skew_product(constants, n, skew_product(constants, n, e(a), e(b)), e(p))
        return blocks[a, b, p]

    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                out = [[Fraction(0)] * (n * n) for _ in range(n)]
                for q, (a, b) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                    for p in range(1, n + 1):
                        for l, x in enumerate(block(a, b, p)):
                            out[l][(q - 1) * n + p - 1] = x
                rows += out
    return rows
