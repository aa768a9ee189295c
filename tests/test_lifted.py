"""Differential and property tests for the integer-lifted rational path.

Over Q the library lifts structure constants, maps and matrix rows to
integers and makes `Fraction`s only for its results. These tests compare
every result with the independent fraction oracles in `oracles.py`, on
catalog, moved-Lie and random algebras at n = 3..6 with large and mixed
denominators, including denominators divisible by the prime modulo which
the cyclic rows are first eliminated.
"""

from fractions import Fraction
from itertools import chain, combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from homlie import (
    QQ,
    LinearMap,
    build_matrix,
    determinant,
    hom_jacobi_defect,
    is_in_kernel,
    kernel_basis,
    linalg,
    make_algebra,
    nullity,
    random_algebra,
    random_invertible_map,
    random_linear_map,
    rank,
    restrict_columns,
    rng,
)
from homlie.lab import catalog

from oracles import (det_fraction, hom_jacobi_rows, mat_vec, nullspace_fraction, rank_fraction,
                     rref_fraction, skew_product)
from samples import lie_algebras, moved, moved_lie_algebras

CERTIFICATE_PRIME = 1073741789
DENOMINATORS = (1, 2, 3, 12, CERTIFICATE_PRIME, 7 * CERTIFICATE_PRIME, 10**30 + 57)


def _fractions_only(values):
    values = list(values)
    assert all(type(x) is Fraction for x in values), {type(x) for x in values}
    return values


def _with_denominators(A, seed, dens=DENOMINATORS):
    """A with each structure constant divided by a seeded denominator."""
    s = rng.stream(seed, 0)
    return make_algebra(A.dim, QQ, [
        (i, j, [x / dens[s.below(len(dens))] for x in vec])
        for (i, j), vec in sorted(A.constants.items())
    ])


def _scaled(A, lam):
    return make_algebra(A.dim, QQ, [(i, j, [lam * x for x in vec])
                                    for (i, j), vec in sorted(A.constants.items())])


def _q_cases():
    """(name, algebra): full-rank and rank-deficient rational inputs."""
    cases = [(c.name, c.algebra) for c in catalog()]
    cases += [(f"moved{t}", A) for t, A in enumerate(moved_lie_algebras(QQ))]
    for name, A in lie_algebras(QQ).items():
        B = moved(A, rng.split(71, A.dim))
        if A.dim < 6:
            cases.append((f"moved-{name}", B))
        # scaling keeps the Jacobi identity: deficient, prime in every denominator
        cases.append((f"moved-{name}/P", _scaled(B, Fraction(5, CERTIFICATE_PRIME))))
    for n in range(3, 7):
        A = random_algebra(n, QQ, rng.split(72, n), bound=9)
        if n < 6:
            cases.append((f"random{n}", A))
        # the fraction oracles take seconds on 100-digit scales from n = 5 on,
        # so at n = 6 the denominators leave out the prime of the mod-P step
        dens = DENOMINATORS[: 7 if n < 5 else 5 if n == 5 else 4]
        cases.append((f"mixed{n}", _with_denominators(A, 73 + n, dens)))
    return cases


CASES = _q_cases()


def _oracle_transport(A, g):
    n = A.dim
    g_rows = [list(row) for row in zip(*g.columns)]
    red, _ = rref_fraction([row + [int(i == j) for j in range(n)] for i, row in enumerate(g_rows)])
    inv_cols = [[red[p][n + q] for p in range(n)] for q in range(n)]
    out = {}
    for i, j in combinations(range(1, n + 1), 2):
        w = mat_vec(g_rows, skew_product(A.constants, n, inv_cols[i - 1], inv_cols[j - 1]))
        if any(w):
            out[i, j] = tuple(w)
    return out


@settings(max_examples=40)
@given(data=st.data())
def test_moved_algebras_keep_the_canonical_lift(data):
    """transport keeps the integer product as the moved algebra's lift: its
    constants are the oracle's, the zero pairs are dropped, the lift is
    canonical (gcd(d, ints) = 1) and the algebra equals the one built from
    the oracle's values. A scaled permutation keeps sparse products
    sparse, so some moved pairs are zero."""
    name, A = data.draw(st.sampled_from([case for case in CASES if case[1].dim <= 5]))
    n = A.dim
    if data.draw(st.booleans()):
        g = random_invertible_map(n, QQ, data.draw(st.integers(0, 2**32 - 1)),
                                  bound=data.draw(st.integers(1, 5)))
    else:
        perm = data.draw(st.permutations(range(n)))
        scale = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from(DENOMINATORS[:4]))
        g = LinearMap(n, QQ, [[data.draw(scale) if a == perm[q] else QQ.zero for a in range(n)]
                              for q in range(n)])
    moved = A.transport(g)
    oracle = _oracle_transport(A, g)
    ints, d = moved.lift()
    assert moved._lift is not None and set(ints) == set(oracle)
    assert all(any(vec) for vec in ints.values())
    assert gcd(d, *chain.from_iterable(ints.values())) == 1
    twin = make_algebra(n, QQ, [(i, j, vec) for (i, j), vec in oracle.items()])
    assert moved == twin and twin == moved and (ints, d) == twin.lift()
    assert moved.constants == oracle


def test_case_families_cover_the_lifted_path():
    assert {A.dim for _, A in CASES} == {3, 4, 5, 6}
    deficient = [name for name, A in CASES if nullity(build_matrix(A))]
    assert len(deficient) >= 10 and any(name.endswith("/P") for name in deficient)
    dens = {x.denominator for _, A in CASES for vec in A.constants.values() for x in vec}
    assert 10**30 + 57 in dens and any(d % CERTIFICATE_PRIME == 0 for d in dens)


@pytest.mark.parametrize("name, A", CASES, ids=[name for name, _ in CASES])
def test_lifted_system_matches_fraction_oracles(name, A):
    n = A.dim
    M = build_matrix(A)
    rows = hom_jacobi_rows(A.constants, n)
    assert M.rows == rows
    assert all(_fractions_only(row) for row in M.rows)
    # the blocks mu(mu(e_i,e_j), e_k) that build_matrix assembles with the algebra product
    for i, j, k in combinations(range(1, n + 1), 3):
        ei, ej, ek = A.basis_vector(i), A.basis_vector(j), A.basis_vector(k)
        assert _fractions_only(A.multiply(A.multiply(ei, ej), ek)) == skew_product(
            A.constants, n, skew_product(A.constants, n, ei, ej), ek)
    expected = rank_fraction(rows)
    assert rank(M) == expected and nullity(M) == n * n - expected
    maps = kernel_basis(M).maps
    assert [_fractions_only(f.flatten()) for f in maps] == nullspace_fraction(rows, n * n)
    # membership against the defect oracle: kernel maps, the identity,
    # random maps and kernel maps pushed off the kernel by one entry
    probes = maps[:4] + [LinearMap.identity(n, QQ), random_linear_map(n, QQ, rng.split(74, n))]
    probes += [LinearMap.from_flat(n, QQ, [x + Fraction(1, 3) * (k == 0) for k, x in enumerate(
        f.flatten())]) for f in maps[:2]]
    for f in probes:
        defects = [x for _, vec in hom_jacobi_defect(A, f) for x in vec]
        assert is_in_kernel(A, f, matrix=M) == (not any(defects))
        assert mat_vec(M.rows, f.flatten()) == defects
    if n == 4:
        assert _fractions_only([determinant(M)]) == [det_fraction(rows)]
    g = random_invertible_map(n, QQ, rng.split(75, n), bound=4)
    moved_constants = A.transport(g).constants
    assert moved_constants == _oracle_transport(A, g)
    assert all(_fractions_only(vec) for vec in moved_constants.values())
    for f in maps[:2] + [random_linear_map(n, QQ, rng.split(76, n))]:
        composed = g.compose(f).compose(g.inverse())
        g_rows = [list(row) for row in zip(*g.columns)]
        gf_cols = [mat_vec(g_rows, col) for col in f.columns]
        inv_rows = [list(row) for row in zip(*g.inverse().columns)]
        gf_rows = [list(row) for row in zip(*gf_cols)]
        assert [_fractions_only(col) for col in composed.columns] == [
            mat_vec(gf_rows, col) for col in zip(*inv_rows)]


@pytest.mark.parametrize("name, A", CASES[::3], ids=[name for name, _ in CASES[::3]])
def test_restricted_rows_keep_the_scale(name, A):
    n = A.dim
    M = build_matrix(A)
    support = [(p, q) for q in range(1, n + 1) for p in range(1, n + 1) if (p + 2 * q) % 3]
    R = restrict_columns(M, support)
    assert R.rows == [[row[(q - 1) * n + p - 1] for p, q in R.support] for row in M.rows]
    assert rank(R) == rank_fraction(R.rows)
    assert [f.flatten() for f in kernel_basis(R).maps] == [
        [v[R.support.index((p, q))] if (p, q) in R.support else 0
         for q in range(1, n + 1) for p in range(1, n + 1)]
        for v in nullspace_fraction(R.rows, R.ncols)]


def _mixed_matrix(s, nrows, ncols, rank_cap=None):
    """Random rational matrix with mixed and large denominators; with
    rank_cap, its rows are combinations of rank_cap random rows."""
    def scalar():
        if s.below(3) == 0:
            return Fraction(0)
        return Fraction(s.randint(-9, 9), DENOMINATORS[s.below(len(DENOMINATORS))])

    if rank_cap is None:
        return [[scalar() for _ in range(ncols)] for _ in range(nrows)]
    base = [[scalar() for _ in range(ncols)] for _ in range(rank_cap)]
    out = []
    for _ in range(nrows):
        coeffs = [scalar() for _ in base]
        out.append([sum((a * b[c] for a, b in zip(coeffs, base)), Fraction(0))
                    for c in range(ncols)])
    return out


def _linalg_cases():
    s = rng.stream(77, 0)
    out = [[], [[Fraction(0)] * 4 for _ in range(3)]]          # no rows; zero rows
    out += [_mixed_matrix(s, 12, 5) for _ in range(4)]          # tall
    out += [_mixed_matrix(s, 9, 7, rank_cap=3) for _ in range(4)]  # rank deficient
    out += [_mixed_matrix(s, 4, 8) for _ in range(3)]           # wide
    out.append([[1, 2, 3], [2, 4, 6], [0, 0, 0], [Fraction(1, 2), 1, Fraction(3, 2)]])
    return out


def test_rational_rref_and_nullspace_match_oracle():
    for m in _linalg_cases():
        ncols = len(m[0]) if m else 4
        red, pivots = linalg.rref(QQ, m)
        assert (red, pivots) == rref_fraction(m)
        assert all(_fractions_only(row) for row in red)
        assert linalg.rank(QQ, m) == len(pivots) == rank_fraction(m)
        basis = linalg.nullspace(QQ, m, ncols)
        assert basis == nullspace_fraction(m, ncols)
        assert all(_fractions_only(v) for v in basis)
        if m and len(m) == ncols:
            assert linalg.det(QQ, m) == det_fraction(m)


@settings(max_examples=60)
@given(data=st.data())
def test_rational_rref_is_invariant_under_row_operations(data):
    nrows = data.draw(st.integers(1, 7))
    ncols = data.draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-20, 20),
                      st.sampled_from((1, 2, 3, 5, 10**20 + 39, CERTIFICATE_PRIME)))
    m = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    order = data.draw(st.permutations(range(nrows)))
    row = data.draw(st.integers(0, nrows - 1))
    lam = data.draw(st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                              st.integers(1, 10**12)))
    reference = linalg.rref(QQ, m)
    assert linalg.rref(QQ, [m[i] for i in order]) == reference
    scaled = [[lam * x for x in r] if i == row else r for i, r in enumerate(m)]
    assert linalg.rref(QQ, scaled) == reference
    assert reference == rref_fraction(m)


def _forbid_fraction_arithmetic(monkeypatch):
    """Make every binary `Fraction` operator raise: building Fractions
    (the output) stays allowed, computing with them does not."""
    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the lifted path")

    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
        monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)


@pytest.mark.parametrize("name", ["mixed4", "moved-sl2+sl2/P", "nonhomlie4"])
def test_integer_operations_make_fractions_only_for_output(name, monkeypatch):
    A = dict(CASES)[name]
    n = A.dim
    g = random_invertible_map(n, QQ, rng.split(78, n), bound=4)
    f = random_linear_map(n, QQ, rng.split(79, n))
    _forbid_fraction_arithmetic(monkeypatch)
    M = build_matrix(A)
    rank(M)
    maps = kernel_basis(M).maps
    for h in maps[:3] + [f]:
        is_in_kernel(A, h, matrix=M)
    A.transport(g)
    g.compose(f).compose(g.inverse())
    if n == 4:
        determinant(M)
