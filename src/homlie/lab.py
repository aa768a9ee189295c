"""Randomized experiments over the space of skew algebras.

Genericity rates are estimated by sampling over a large prime field: a
fixed nonzero polynomial (a determinant or maximal minor) vanishes at a
uniform random point of F_p^N with probability at most deg/p
(Schwartz-Zippel), so observed full-rank fractions track the Zariski-open
locus up to that error. Reports are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import rng
from .algebra import LinearMap, SkewAlgebra, make_algebra, random_algebra, random_invertible_map
from .field import QQ, Field, PrimeField
from .system import (bidiagonal_support, build_matrix, check_size, is_in_kernel, kernel_basis,
                     nullity, rank as matrix_rank, restrict_columns)

DEFAULT_PRIME = 10007


@dataclass
class SampleReport:
    """Nullity histogram of the Hom-Jacobi matrix over random algebras."""

    dim: int
    field: Field
    trials: int
    seed: int
    histogram: dict = dc_field(default_factory=dict)
    full_rank: int = 0

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "p": self.field.p,
            "trials": self.trials,
            "seed": self.seed,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "full_rank": self.full_rank,
        }


def genericity_experiment(dim: int, trials: int, field: Field, seed: int) -> SampleReport:
    """Sample `trials` random algebras and record the nullity of each.

    The seed must lie in [0, 2^64): the random streams read it modulo 2^64,
    so any other seed would repeat the draws of one inside the range.
    """
    if dim < 3:
        raise ValueError("genericity experiments need dimension >= 3")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not isinstance(field, PrimeField):
        raise ValueError("genericity experiments run over a prime field")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    check_size(dim)
    hist: dict[int, int] = {}
    full = 0
    for t in range(trials):
        A = random_algebra(dim, field, rng.split(seed, t))
        M = build_matrix(A)
        nul = M.ncols - matrix_rank(M)
        hist[nul] = hist.get(nul, 0) + 1
        if nul == 0:
            full += 1
    return SampleReport(dim, field, trials, seed, hist, full)


def generic_reduced_rank(count: int, fld: Field, seed: int) -> dict:
    """Rank histogram of the bidiagonal restricted system on random
    4-dimensional algebras; deterministic per seed.

    The seed must lie in [0, 2^64): the random streams read it modulo 2^64,
    so any other seed would repeat the draws of one inside the range.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    support = bidiagonal_support(4)
    hist: dict[int, int] = {}
    for t in range(count):
        A = random_algebra(4, fld, rng.split(seed, t))
        r = matrix_rank(restrict_columns(build_matrix(A), support))
        hist[r] = hist.get(r, 0) + 1
    return hist


def invariance_battery(A: SkewAlgebra, trials: int, seed: int) -> bool:
    """Check that nullity is a transport invariant and kernels conjugate.

    Draws `trials` random invertible maps g; for each, the transported
    algebra must have the same nullity, and g o f o g^-1 must stay in the
    transported kernel for every canonical kernel basis map f. Each g is
    inverted once, by its draw's invertibility test, and keeps its
    inverse. Every algebra and map holds its integer lift (see
    `SkewAlgebra`), which `transport`, `build_matrix` and the conjugation
    read, so no trial makes a `Fraction`. The map tested is the integer
    product G·F·H of the lifts of g, f and g^-1: a nonzero integer
    multiple of g o f o g^-1, which is in the kernel exactly when
    g o f o g^-1 is, built from those integers (residues mod p over F_p)
    with no check. It is formed from F's nonzero entries a_pq: column q of
    G·F is the sum of a_pq·G[:, p], and column r of G·F·H the sum of
    H[q, r]·(G·F)[:, q] over F's nonzero columns q. That is
    nnz(F)·n + |cols(F)|·n² integer multiplications, never more than the
    2n³ of two dense products (n + n² for a map with one nonzero entry),
    and the same integers as G·(F·H). The nullity of the transported
    matrix keeps its echelon basis, and each membership test reads that
    basis, not the transported matrix's rows (see `system.is_in_kernel`).
    A keeps its base kernel maps (and nothing else of its system) from
    the first call, so only that call eliminates A's own matrix. When
    A's nullity is n^2 (A's matrix is zero, as for the 2-step nilpotent
    algebras), so is every moved nullity the check accepts, and a zero
    matrix holds every map: the trials then form no conjugated map, and
    the answer is the one the membership tests would give.

    The seed must lie in [0, 2^64): the random streams read it modulo 2^64,
    so any other seed would repeat the draws of one inside the range.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    fld, n = A.field, A.dim
    base = A._kernel
    if base is None:
        base = tuple(kernel_basis(build_matrix(A)).maps)
        object.__setattr__(A, "_kernel", base)
    # at nullity n^2 the moved matrices are zero (rank 0, as for the 2-step
    # nilpotent algebras) and hold every map, so no conjugation is formed
    sparse = [_nonzero_columns(f) for f in base] if len(base) < n * n else []
    for t in range(trials):
        g = random_invertible_map(n, fld, rng.split(seed, t))
        moved = A.transport(g)
        moved_matrix = build_matrix(moved)
        if nullity(moved_matrix) != len(base):
            return False
        G, H = g.lift()[0], g.inverse().lift()[0]
        for F in sparse:
            GF = [(q, _combination((a, G[p]) for p, a in col)) for q, col in F]
            conjugated = [_combination((h[q], v) for q, v in GF) for h in H]
            if not is_in_kernel(moved, LinearMap._from_ints(fld, conjugated), matrix=moved_matrix):
                return False
    return True


def _nonzero_columns(f: LinearMap) -> list:
    """[(q, [(p, a_pq), ...]), ...]: the nonzero columns of f's integer
    lift (`LinearMap.lift`) with their nonzero entries."""
    return [(q, [(p, a) for p, a in enumerate(col) if a])
            for q, col in enumerate(f.lift()[0]) if any(col)]


def _combination(terms) -> list:
    """The integer column sum of c·v over the (c, v) pairs of terms (at
    least one pair): len(v) multiplications per pair."""
    terms = iter(terms)
    c, v = next(terms)
    acc = [c * x for x in v]
    for c, v in terms:
        acc = [y + c * x for y, x in zip(acc, v)]
    return acc


@dataclass
class NamedAlgebra:
    """A regression fixture with its verified expectations."""

    name: str
    algebra: SkewAlgebra
    is_lie: bool
    is_hom_lie: bool
    nullity: int | None = None


def _abelian(n: int) -> SkewAlgebra:
    return make_algebra(n, QQ, [])


def _heisenberg3() -> SkewAlgebra:
    return make_algebra(3, QQ, [(1, 2, [0, 0, 1])])


def _cross_product3() -> SkewAlgebra:
    return make_algebra(3, QQ, [
        (1, 2, [0, 0, 1]),
        (1, 3, [0, -1, 0]),
        (2, 3, [1, 0, 0]),
    ])


def _nonhomlie4() -> SkewAlgebra:
    # 4-dimensional algebra with full-rank Hom-Jacobi matrix: it admits no
    # nonzero twisting map at all
    return make_algebra(4, QQ, [
        (1, 2, [0, 1, 2, -1]),
        (1, 3, [1, 2, -1, 0]),
        (1, 4, [2, -1, 0, 1]),
        (2, 3, [-1, 0, 1, 2]),
        (2, 4, [1, 2, -1, 3]),
        (3, 4, [-2, -1, 1, 2]),
    ])


def _sl2_plus_abelian4() -> SkewAlgebra:
    # sl2 = span(e1, e2, e3) with a 1-dimensional abelian direct summand e4
    return make_algebra(4, QQ, [
        (1, 2, [0, 2, 0, 0]),
        (1, 3, [0, 0, -2, 0]),
        (2, 3, [1, 0, 0, 0]),
    ])


def catalog() -> list[NamedAlgebra]:
    """Built-in named algebras with their expected invariants."""
    return [
        NamedAlgebra("abelian3", _abelian(3), is_lie=True, is_hom_lie=True, nullity=9),
        NamedAlgebra("abelian4", _abelian(4), is_lie=True, is_hom_lie=True, nullity=16),
        NamedAlgebra("abelian5", _abelian(5), is_lie=True, is_hom_lie=True, nullity=25),
        NamedAlgebra("heisenberg3", _heisenberg3(), is_lie=True, is_hom_lie=True, nullity=9),
        NamedAlgebra("cross_product3", _cross_product3(), is_lie=True, is_hom_lie=True, nullity=6),
        NamedAlgebra("nonhomlie4", _nonhomlie4(), is_lie=False, is_hom_lie=False, nullity=0),
        NamedAlgebra("sl2_plus_abelian4", _sl2_plus_abelian4(), is_lie=True, is_hom_lie=True,
                     nullity=10),
    ]
