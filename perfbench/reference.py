"""Independent reference arithmetic for the benchmark's correctness gate.

Nothing here imports homlie: the seeded draws, the Hom-Jacobi assembly
and the elimination are re-derived from their definitions on plain Python
ints mod a prime, so a wrong answer from the package cannot also be the
reference's answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# Second large prime for certifying rational answers (2^61 - 1, Mersenne).
P2 = (1 << 61) - 1

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _word(key: int, counter: int) -> int:
    return _mix((key + (counter + 1) * _GOLDEN) & _MASK)


def split(seed: int, slot: int) -> int:
    """Counter-based splitmix64 key for (seed, slot), as the package defines it."""
    return _word(_mix(seed & _MASK), slot & _MASK)


def below(key: int, m: int) -> int:
    """First uniform draw in [0, m) of the stream `key`, by rejection."""
    limit = (1 << 64) - ((1 << 64) % m)
    counter = 0
    while True:
        w = _word(key, counter)
        counter += 1
        if w < limit:
            return w % m


def random_constants_mod_p(dim: int, p: int, seed: int) -> dict:
    """Structure constants {(i, j): vector} of the seeded random F_p algebra.

    Slot (pair_rank * dim + k) of `seed` gives coordinate k of the pair with
    lexicographic rank pair_rank.
    """
    out = {}
    for rank, (i, j) in enumerate(combinations(range(1, dim + 1), 2)):
        out[(i, j)] = [below(split(seed, rank * dim + k), p) for k in range(dim)]
    return out


def to_mod(x, p: int) -> int:
    """A rational (int or Fraction) pushed into F_p; p must not divide its denominator."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} is divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def double_products(dim: int, constants: dict, p: int) -> list:
    """D[u][v][w] = coordinates of mu(mu(e_u, e_v), e_w) mod p, 0-based indices."""
    mu = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in constants.items():
        for k, c in enumerate(vec):
            c = to_mod(c, p)
            mu[i - 1][j - 1][k] = c
            mu[j - 1][i - 1][k] = -c % p
    D = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for u in range(dim):
        for v in range(dim):
            for w in range(dim):
                D[u][v][w] = [
                    sum(mu[u][v][s] * mu[s][w][l] for s in range(dim)) % p
                    for l in range(dim)
                ]
    return D


def hom_jacobi_rows(dim: int, constants: dict, p: int) -> list:
    """The Hom-Jacobi matrix mod p under the package's frozen row/column order.

    Row (T, l) for triple T = (i<j<k) in lex order and coordinate l; column
    (q - 1) * dim + (p - 1) for the unknown a_{p,q}. The cyclic identity
    pairs f(e_k) with mu(e_i, e_j), f(e_i) with mu(e_j, e_k) and f(e_j) with
    mu(e_k, e_i).
    """
    D = double_products(dim, constants, p)
    rows = []
    for i, j, k in combinations(range(dim), 3):
        block = [[0] * (dim * dim) for _ in range(dim)]
        for q, (u, v) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            for w in range(dim):
                coords = D[u][v][w]
                for l in range(dim):
                    block[l][q * dim + w] = coords[l]
        rows.extend(block)
    return rows


def is_lie_mod_p(dim: int, constants: dict, p: int) -> bool:
    """Jacobi identity on every basis triple, mod p."""
    D = double_products(dim, constants, p)
    return all(
        (D[i][j][k][l] + D[j][k][i][l] + D[k][i][j][l]) % p == 0
        for i, j, k in combinations(range(dim), 3)
        for l in range(dim)
    )


def rank_mod_p(rows: list, p: int) -> int:
    """Rank of an int matrix mod p by forward elimination."""
    rows = [[x % p for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                ri = rows[i]
                rows[i] = [(a - f * b) % p for a, b in zip(ri, top)]
        r += 1
    return r


def det_mod_p(rows: list, p: int) -> int:
    """Determinant of a square int matrix mod p."""
    m = [[x % p for x in r] for r in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        top = m[c]
        det = det * top[c] % p
        inv = pow(top[c], -1, p)
        for i in range(c + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], top)]
    return det % p


def mat_vec_fraction(rows: list, v: list) -> list:
    """Exact product of a rational matrix and vector."""
    return [sum((a * x for a, x in zip(row, v) if a and x), Fraction(0)) for row in rows]
