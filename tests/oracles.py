"""Independent oracles used to cross-check the library's main code paths.

Nothing here shares algorithms with src/homlie: the determinant oracle is
Laplace expansion (memoized on column subsets), naive fraction and mod-p
row reduction back the rank checks, and defects are recomputed from
first principles where needed.
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
