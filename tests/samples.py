"""Seeded algebra families shared by the tests and the CLI golden replay.

Transported ("moved") Lie algebras are Lie, so their Hom-Jacobi matrices
are rank deficient (the identity is a twisting map) while their structure
constants look generic.
"""

from homlie import make_algebra, random_invertible_map, reduce_mod, rng
from homlie.lab import catalog

# Lie algebras as (dim, [(i, j, {k: coefficient of e_k in [e_i, e_j]})])
SL2 = (3, [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})])
H3 = (3, [(1, 2, {3: 1})])
H5 = (5, [(1, 2, {5: 1}), (3, 4, {5: 1})])
A2 = (2, [])


def direct_sum(field, *parts):
    """The direct sum of algebras given as (dim, brackets)."""
    n = sum(d for d, _ in parts)
    products, offset = [], 0
    for d, brackets in parts:
        for i, j, coeffs in brackets:
            vec = [0] * n
            for k, c in coeffs.items():
                vec[offset + k - 1] = c
            products.append((offset + i, offset + j, vec))
        offset += d
    return make_algebra(n, field, products)


def lie_algebras(field) -> dict:
    """Lie algebras of dimension 5 and 6, by name."""
    return {
        "sl2+a2": direct_sum(field, SL2, A2),
        "h5": direct_sum(field, H5),
        "sl2+h3": direct_sum(field, SL2, H3),
        "sl2+sl2": direct_sum(field, SL2, SL2),
    }


def moved(A, seed: int, bound: int = 3):
    """A transported along a seeded random invertible map."""
    return A.transport(random_invertible_map(A.dim, A.field, seed, bound))


def moved_lie_algebras(field):
    """Catalog Lie algebras transported by seeded invertible maps: rank deficient."""
    out = []
    for t, entry in enumerate(c for c in catalog() if c.is_lie):
        A = entry.algebra
        if field.p:
            A = make_algebra(A.dim, field, [(i, j, [reduce_mod(x, field.p) for x in vec])
                                            for (i, j), vec in A.constants.items()])
        out.append(moved(A, rng.split(61, t)))
    return out
