import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from homlie import (
    HomJacobiMatrix,
    LinearMap,
    PrimeField,
    ShapeError,
    build_matrix,
    determinant,
    diagonal_support,
    bidiagonal_support,
    generic_reduced_rank,
    hom_jacobi_defect,
    is_hom_lie,
    is_in_kernel,
    kernel_basis,
    make_algebra,
    nullity,
    random_algebra,
    random_invertible_map,
    random_linear_map,
    rank,
    reduce_mod,
    restrict_columns,
    rng,
    triple_count,
)
from homlie.field import QQ, _unlift
from homlie.lab import catalog
from homlie import linalg
from homlie.system import MAX_ENTRIES, check_size

from oracles import (hom_jacobi_rows, mat_vec, nullspace_fraction, nullspace_modp, rank_det_modp,
                     rank_fraction, skew_product)
from samples import lie_algebras, moved, moved_lie_algebras

# the prime modulo which the cyclic rows are first eliminated over Q
CERTIFICATE_PRIME = 1073741789


def _block(A, i, j, k):
    """mu(mu(e_i,e_j), e_k) by the oracle product."""
    n, p = A.dim, A.field.p
    e = [[int(a == b) for b in range(1, n + 1)] for a in range(n + 1)]
    return skew_product(A.constants, n, skew_product(A.constants, n, e[i], e[j], p), e[k], p)


def _defects_vanish(A, f):
    zero = A.zero_vector()
    return all(vec == zero for _, vec in hom_jacobi_defect(A, f))


def _random_vector(field, s, n):
    """About a third of the coordinates are zero."""
    out = []
    for _ in range(n):
        if s.below(3) == 0:
            out.append(field.zero)
        elif field.p:
            out.append(s.below(field.p))
        else:
            out.append(Fraction(s.randint(-10, 10), s.randint(1, 10)))
    return tuple(out)


@pytest.mark.parametrize("which", ["rational", "prime"])
def test_scalar_core_matches_plain_oracle(which, fp):
    field = QQ if which == "rational" else fp
    p = field.p
    for n in range(3, 7):
        for t in range(2):
            s = rng.stream(1000 + n, t)
            dense = random_algebra(n, field, rng.split(800 + n, t), bound=10)
            # a sparse twin: each structure constant zeroed with chance 1/3
            sparse = make_algebra(n, field, [
                (i, j, [x if s.below(3) else field.zero for x in vec])
                for (i, j), vec in dense.constants.items()
            ])
            f = random_linear_map(n, field, rng.split(900 + n, t), bound=10)
            f_rows = [list(row) for row in zip(*f.columns)]
            basis = [tuple(int(k == i) for k in range(n)) for i in range(n)]
            for A in (dense, sparse):
                def mu(x, y):
                    return skew_product(A.constants, n, x, y, p)

                for _ in range(4):
                    x, y, z = (_random_vector(field, s, n) for _ in range(3))
                    assert list(A.multiply(x, y)) == mu(x, y)
                    jac = [sum(v) % p if p else sum(v)
                           for v in zip(mu(mu(x, y), z), mu(mu(y, z), x), mu(mu(z, x), y))]
                    assert list(A.jacobiator(x, y, z)) == jac
                    assert list(f.apply(x)) == mat_vec(f_rows, x, p)
                for i, j, k in product(range(1, n + 1), repeat=3):
                    expected = mu(mu(basis[i - 1], basis[j - 1]), basis[k - 1])
                    got = A.multiply(A.multiply(basis[i - 1], basis[j - 1]), basis[k - 1])
                    assert list(got) == expected


def test_matrix_shape_counts(fp):
    for n in range(3, 8):
        A = random_algebra(n, fp, seed=50 + n)
        M = build_matrix(A)
        assert M.nrows == n * n * (n - 1) * (n - 2) // 6 == n * triple_count(n)
        assert M.ncols == n * n
        assert rank(M) + nullity(M) == n * n


def test_low_dimension_conventions(qq):
    for n in (1, 2):
        A = make_algebra(n, qq, [] if n == 1 else [(1, 2, [1, 0])])
        M = build_matrix(A)
        assert M.nrows == 0 and M.ncols == n * n
        assert determinant(M) == 1
        ok, witness = is_hom_lie(A)
        assert ok and witness is not None and not witness.is_zero()
        assert kernel_basis(M).nullity == n * n


def test_golden_matrix(named, fixtures_dir):
    M = build_matrix(named["nonhomlie4"].algebra)
    golden = [
        [int(tok) for tok in line.split()]
        for line in (fixtures_dir / "nonhomlie4_matrix.txt").read_text().splitlines()
    ]
    assert [[int(x) for x in row] for row in M.rows] == golden
    assert [int(x) for x in M.rows[0]] == [-5, -1, 3, -4, -1, 1, 1, -6, 0, 3, -3, -3, 0, 0, 0, 0]


@pytest.mark.parametrize("which", ["rational", "prime"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_matrix_entry_invariant_on_random_algebra(fp, which, n):
    # entry (row (T,l), col (p,q)) must equal coordinate l of the product
    # block for the complementary pair of the triple; the (k, i) block is
    # computed here directly, not as the negated (i, k) block
    field = QQ if which == "rational" else fp
    A = random_algebra(n, field, seed=51)
    M = build_matrix(A)
    assert M.support == tuple((p, q) for q in range(1, n + 1) for p in range(1, n + 1))
    for t, (i, j, k) in enumerate(combinations(range(1, n + 1), 3)):
        for q in range(1, n + 1):
            for p in range(1, n + 1):
                col = (q - 1) * n + (p - 1)
                if q == i:
                    expected = _block(A, j, k, p)
                elif q == j:
                    expected = _block(A, k, i, p)
                elif q == k:
                    expected = _block(A, i, j, p)
                else:
                    expected = tuple([0] * n)
                assert tuple(M.rows[t * n + l][col] for l in range(n)) == tuple(expected)


def test_heisenberg_matrix_is_zero(named):
    M = build_matrix(named["heisenberg3"].algebra)
    assert M.nrows == 3 and M.ncols == 9
    assert all(x == 0 for row in M.rows for x in row)
    assert kernel_basis(M).nullity == 9


def test_cross_product_kernel_is_symmetric_maps(named):
    A = named["cross_product3"].algebra
    M = build_matrix(A)
    basis = kernel_basis(M)
    assert basis.nullity == 6
    # membership of the six elementary symmetric maps ...
    for p in range(1, 4):
        for q in range(p, 4):
            entries = {(p, q): 1, (q, p): 1} if p != q else {(p, p): 1}
            f = LinearMap.from_entries(3, QQ, entries)
            assert is_in_kernel(A, f, matrix=M)
            assert _defects_vanish(A, f)
    # ... and exclusion of an antisymmetric one
    anti = LinearMap.from_entries(3, QQ, {(1, 2): 1, (2, 1): -1})
    assert not is_in_kernel(A, anti, matrix=M)
    assert not _defects_vanish(A, anti)
    # every canonical basis map is itself symmetric
    for f in basis.maps:
        for p in range(1, 4):
            for q in range(1, 4):
                assert f.entry(p, q) == f.entry(q, p)


def test_defect_of_zero_map_vanishes(named):
    for entry in named.values():
        A = entry.algebra
        assert _defects_vanish(A, LinearMap.zero(A.dim, A.field))


def test_defect_of_identity_detects_lie(named):
    for entry in named.values():
        A = entry.algebra
        ident = LinearMap.identity(A.dim, A.field)
        assert _defects_vanish(A, ident) == entry.is_lie
        assert is_in_kernel(A, ident) == entry.is_lie


def test_single_entry_map_fails_on_cross_product(named):
    A = named["cross_product3"].algebra
    f = LinearMap.from_entries(3, QQ, {(2, 1): 1})
    assert not is_in_kernel(A, f)


def test_oracle_equivalence_on_randoms(fp, qq):
    s = rng.stream(52, 0)
    for t in range(60):
        n = (3, 4, 5)[t % 3]
        field = fp if t % 2 == 0 else qq
        A = random_algebra(n, field, rng.split(53, t), bound=6)
        f = random_linear_map(n, field, rng.split(54, t), bound=6)
        M = build_matrix(A)
        assert is_in_kernel(A, f, matrix=M) == _defects_vanish(A, f)
        # matrix route agrees with defects blockwise, not just on zero/nonzero
        flat = mat_vec(M.rows, f.flatten(), field.p)
        defects = hom_jacobi_defect(A, f)
        for r, (_, vec) in enumerate(defects):
            assert tuple(flat[r * n : (r + 1) * n]) == tuple(vec)


def test_kernel_maps_all_have_zero_defect(fp):
    for t in range(20):
        A = random_algebra(3, fp, rng.split(55, t))
        M = build_matrix(A)
        basis = kernel_basis(M)
        assert basis.nullity >= 6
        for f in basis.maps:
            assert all(x == 0 for x in mat_vec(M.rows, f.flatten(), fp.p))
            assert _defects_vanish(A, f)


def test_rank_nullity_against_fraction_oracle(qq):
    for t in range(10):
        A = random_algebra(3, qq, rng.split(56, t), bound=5)
        M = build_matrix(A)
        assert rank(M) == rank_fraction([[Fraction(x) for x in row] for row in M.rows])


def _oracle_rank(M):
    if M.field.p:
        return rank_det_modp(M.rows, M.field.p)[0]
    return rank_fraction(M.rows)


def _assert_rank_matches_oracle(M) -> bool:
    """rank, nullity and the kernel basis size agree with the oracle;
    returns whether M has full column rank."""
    expected = _oracle_rank(M)
    assert rank(M) == expected
    assert nullity(M) == kernel_basis(M).nullity == M.ncols - expected
    return expected == M.ncols


def _cyclic_rows(M):
    """The rows of the n cyclic triples {i, i+1, i+2} (indices mod n, n >= 4)."""
    n = M.dim
    triples = list(combinations(range(1, n + 1), 3))
    rows = []
    for i in range(1, n + 1):
        t = triples.index(tuple(sorted((i, i % n + 1, (i + 1) % n + 1))))
        rows += M.rows[t * n : (t + 1) * n]
    return rows


def test_rank_and_kernel_match_oracles(fp, qq):
    generic = [random_algebra(n, fp, rng.split(62, n)) for n in range(4, 9)]
    generic += [random_algebra(n, qq, rng.split(63, n), bound=5) for n in range(4, 7)]
    assert all(_assert_rank_matches_oracle(build_matrix(A)) for A in generic)
    for entry in catalog():
        M = build_matrix(entry.algebra)
        _assert_rank_matches_oracle(M)
        assert kernel_basis(M).nullity == entry.nullity
    for field in (qq, fp):
        for A in moved_lie_algebras(field):
            M = build_matrix(A)
            assert not _assert_rank_matches_oracle(M)
            assert rank(M) < M.ncols


def test_generic_rank_reads_only_the_cyclic_rows(monkeypatch, fp, qq):
    # build_matrix computes no block; the cyclic triples come first, so a
    # generic M reaches full column rank on its first n^2 rows (over Q in
    # the mod-P step alone), which need only the blocks of the cyclic pairs
    # {i, i+1} and {i, i+2}: 2n of the n(n-1)/2 pairs for n >= 6. Neither
    # rank nor the empty kernel back-substitutes, and a second call on the
    # same M reads its kept echelon and no row
    eliminate = linalg._eliminate
    read = []

    def counting(rows, ncols, p):
        def rows_read():
            for row in rows:
                read.append(p)
                yield row
        return eliminate(rows_read(), ncols, p)

    def no_back_substitution(*args):
        raise AssertionError("back-substituted at full column rank")

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(linalg, "_back", no_back_substitution)
    generic = [random_algebra(n, fp, rng.split(62, n)) for n in range(4, 9)]
    generic += [random_algebra(n, qq, rng.split(63, n), bound=5) for n in range(4, 7)]
    for A in generic:
        n, M = A.dim, build_matrix(A)
        assert not M._blocks
        cyclic_rows = [A.field.p or CERTIFICATE_PRIME] * (n * n)
        read.clear()
        assert rank(M) == n * n and read == cyclic_rows
        pairs = {frozenset(uv) for uv in M._blocks}
        assert pairs == {frozenset((i, (i + s - 1) % n + 1)) for i in range(1, n + 1) for s in (1, 2)}
        assert len(pairs) == (2 * n if n >= 5 else 6)
        assert n < 6 or len(pairs) < n * (n - 1) // 2
        read.clear()
        assert rank(M) == n * n and kernel_basis(M).maps == [] and read == []
        assert kernel_basis(build_matrix(A)).maps == [] and read == cyclic_rows


LAZY_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(10007), QQ)

# a prime other than the library's: rank modulo it <= rank over Q
ORACLE_PRIME = 2147483647


def _oracle_rank_and_kernel(rows, ncols: int, p: int) -> tuple[int, list]:
    """(rank, canonical kernel basis) of oracle rows. Over F_p by mod-p
    elimination. Over Q full column rank is certified modulo ORACLE_PRIME
    on the rows lifted to integers; otherwise fraction Gauss-Jordan decides."""
    if p:
        r = rank_det_modp(rows, p)[0]
        return r, [] if r == ncols else nullspace_modp(rows, ncols, p)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    if rank_det_modp([[int(x * d) for x in row] for row in rows], ORACLE_PRIME)[0] == ncols:
        return ncols, []
    kernel = nullspace_fraction(rows, ncols)
    return ncols - len(kernel), kernel


def _kernel_vectors(M) -> list:
    """kernel_basis(M) as coordinate vectors over M's columns."""
    return [[f.entry(p, q) for p, q in M.support] for f in kernel_basis(M).maps]


def test_lazy_rows_rank_and_kernel_match_the_oracles():
    # generic and moved Lie algebras, whole and restricted to the diagonal
    # and bidiagonal shapes (which share the whole matrix's blocks), against
    # rows, ranks and kernels that share nothing with the library
    for field in LAZY_FIELDS:
        p = field.p
        algebras = [random_algebra(n, field, rng.split(66, n), bound=3) for n in range(3, 9)]
        for A in algebras + moved_lie_algebras(field):
            n, M = A.dim, build_matrix(A)
            whole = hom_jacobi_rows(A.constants, n)
            if p:
                whole = [[int(x) % p for x in row] for row in whole]
            for support in (None, diagonal_support(n), bidiagonal_support(n)):
                R = M if support is None else restrict_columns(M, support)
                rows = [[row[(q - 1) * n + a - 1] for a, q in R.support] for row in whole]
                r, kernel = _oracle_rank_and_kernel(rows, R.ncols, p)
                assert rank(R) == r and _kernel_vectors(R) == kernel, (field, n, support)
                fresh = build_matrix(A)
                if support is not None:
                    fresh = restrict_columns(fresh, support)
                assert R.int_rows == fresh.int_rows
                assert R.int_rows == [[x * R.scale for x in row] for row in rows]
                assert R.rows == rows


@settings(max_examples=40)
@given(data=st.data(), field=st.sampled_from(LAZY_FIELDS), shape=st.sampled_from(["full", "diag", "bidiag"]))
def test_kernel_does_not_depend_on_the_row_order(data, field, shape):
    # the canonical kernel is read off the RREF, which depends only on the
    # row space: eliminating the triples in any order gives kernel_basis(M),
    # which is why the cyclic-first stream may reorder them
    algebras = moved_lie_algebras(field)
    if data.draw(st.booleans()):
        A = algebras[data.draw(st.integers(0, len(algebras) - 1))]
    else:
        A = random_algebra(data.draw(st.integers(3, 5)), field,
                           data.draw(st.integers(0, 2**32 - 1)), bound=3)
    n, M = A.dim, build_matrix(A)
    if shape != "full":
        M = restrict_columns(M, (diagonal_support if shape == "diag" else bidiagonal_support)(n))
    order = data.draw(st.permutations(range(triple_count(n))))
    rows = [row for t in order for row in M.int_rows[t * n : (t + 1) * n]]
    got = linalg._kernel(*linalg._eliminate(rows, M.ncols, field.p), M.ncols, field.p)
    assert [_unlift(field, v, d) for v, d in got] == _kernel_vectors(M)
    # each lift is canonical: gcd(d, ints) = 1 over Q, residues over F_p
    p = field.p
    assert all(d == 1 and all(0 <= x < p for x in v) if p else math.gcd(d, *v) == 1
               for v, d in got)


KERNEL_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(10007))


@st.composite
def _sparse_algebras(draw, field):
    """Algebras of dimension 3..5 (3..4 over Q) whose structure constants
    are mostly zero, so their Hom-Jacobi matrices are often rank
    deficient; over Q the constants have mixed denominators, one of them
    the prime of the mod-P step."""
    n = draw(st.integers(3, 4 if field is QQ else 5))
    if field is QQ:
        value = st.builds(Fraction, st.integers(-3, 3),
                          st.sampled_from((1, 2, 3, 12, CERTIFICATE_PRIME)))
    else:
        value = st.integers(0, field.p - 1)
    entry = st.just(0) | value
    products = [(i, j, draw(st.lists(entry, min_size=n, max_size=n)))
                for i, j in combinations(range(1, n + 1), 2) if draw(st.integers(0, 2))]
    return make_algebra(n, field, products)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "F2", "F3", "F7", "F10007"])
@settings(max_examples=30)
@given(data=st.data())
def test_kernel_maps_built_from_integers_match_the_oracles(field, data):
    """kernel_basis builds its maps from the integer lifts of
    `linalg._kernel`. They are the oracle's canonical kernel vectors placed
    through the support, on the whole matrix and on a random restriction;
    each equals the map built from those values, and its kept lift is the
    canonical one (gcd(d, ints) = 1 over Q, residues over F_p)."""
    p = field.p
    if data.draw(st.booleans()):
        A = data.draw(_sparse_algebras(field))
    else:
        algebras = moved_lie_algebras(field)
        A = algebras[data.draw(st.integers(0, len(algebras) - 1))]
    n, M = A.dim, build_matrix(A)
    whole = hom_jacobi_rows(A.constants, n)
    if p:
        whole = [[int(x) % p for x in row] for row in whole]
    positions = list(M.support)
    if data.draw(st.booleans()):
        M = restrict_columns(M, data.draw(st.lists(st.sampled_from(positions), min_size=1)))
    rows = [[row[(q - 1) * n + a - 1] for a, q in M.support] for row in whole]
    oracle = nullspace_modp(rows, M.ncols, p) if p else nullspace_fraction(rows, M.ncols)
    maps = kernel_basis(M).maps
    assert len(maps) == len(oracle)
    for f, v in zip(maps, oracle):
        flat = [field.zero] * (n * n)
        for (a, q), x in zip(M.support, v):
            flat[(q - 1) * n + a - 1] = x
        assert f.flatten() == flat
        assert f == LinearMap.from_flat(n, field, flat)
        ints, d = f.lift()
        if p:
            assert d == 1 and all(0 <= x < p for col in ints for x in col)
        else:
            assert f._lift is not None and math.gcd(d, *(x for col in ints for x in col)) == 1
            assert (ints, d) == LinearMap.from_flat(n, field, flat).lift()


def _eliminations(monkeypatch) -> list:
    """Spy on linalg._eliminate: the list it returns gets the modulus of
    each call, 0 over Q."""
    eliminate, moduli = linalg._eliminate, []

    def spy(rows, ncols, p):
        moduli.append(p)
        return eliminate(rows, ncols, p)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return moduli


def _membership_cases(field):
    """(kind, algebra) at n = 3..7: generic (full rank from n = 4 over a
    large field), moved Lie algebras (rank deficient) and abelian (every
    row zero)."""
    cases = [("generic", random_algebra(n, field, rng.split(67, n), bound=3)) for n in range(3, 8)]
    cases += [("moved", A) for A in moved_lie_algebras(field)]
    cases += [("moved", moved(A, rng.split(68, t))) for t, A in enumerate(lie_algebras(field).values())]
    cases += [("abelian", make_algebra(n, field, [])) for n in range(3, 8)]
    return cases


def _membership_maps(A, seed: int) -> list:
    """Every kernel map (found on a matrix of its own), each with one
    seeded entry changed by 1, Id, the zero map and a seeded random map."""
    n, field = A.dim, A.field
    maps = [LinearMap.identity(n, field), LinearMap.zero(n, field), random_linear_map(n, field, seed)]
    s = rng.stream(seed, 1)
    for f in kernel_basis(build_matrix(A)).maps:
        flat = f.flatten()
        flat[s.below(n * n)] += 1
        maps += [f, LinearMap.from_flat(n, field, flat)]
    return maps


def _integers(values) -> list:
    """Rationals (or ints) scaled to integers by their common denominator."""
    d = math.lcm(*(Fraction(x).denominator for x in values))
    return [int(x * d) for x in values]


def test_membership_against_the_kept_echelon_matches_the_oracle(monkeypatch):
    # membership reads M's echelon: {0} at full column rank, otherwise its
    # pivot rows. On a fresh matrix the first membership test makes the
    # echelon, after rank it is the one rank kept. Both must agree with
    # M.v = 0 on rows built from the definition, each lifted to integers
    # (a nonzero multiple), reduced mod p over F_p
    moduli = _eliminations(monkeypatch)
    decided_mod_p = 0
    for field in LAZY_FIELDS:
        p = field.p
        for t, (kind, A) in enumerate(_membership_cases(field)):
            n = A.dim
            rows = hom_jacobi_rows(A.constants, n)
            if p:
                rows = [[int(x) % p for x in row] for row in rows]
            int_rows = [row for row in map(_integers, rows) if any(row)]
            M = build_matrix(A)
            moduli.clear()
            r = rank(M)
            assert r == _oracle_rank_and_kernel(rows, n * n, p)[0]
            if kind == "abelian":
                assert r == 0
            elif kind == "moved":
                assert r < n * n
            elif not p and n >= 4:
                assert r == n * n
                decided_mod_p += moduli == [CERTIFICATE_PRIME]
            fresh = build_matrix(A)
            for f in _membership_maps(A, rng.split(69 + t, n)):
                v = _integers(f.flatten())
                products = (sum(a * b for a, b in zip(row, v)) for row in int_rows)
                expected = not any(x % p if p else x for x in products)
                assert is_in_kernel(A, f, matrix=fresh) == expected, (field, kind, n)
                assert is_in_kernel(A, f, matrix=M) == expected, (field, kind, n)
    assert decided_mod_p == 4


def test_membership_after_rank_reads_no_row(monkeypatch):
    # once rank has run, membership computes no triple rows and eliminates
    # nothing; once kernel_basis has run, rank eliminates nothing either
    triples = []
    triple = HomJacobiMatrix._triple

    def spy(M, t):
        triples.append(t)
        return triple(M, t)

    monkeypatch.setattr(HomJacobiMatrix, "_triple", spy)
    moduli = _eliminations(monkeypatch)
    for field in LAZY_FIELDS:
        for A in moved_lie_algebras(field) + [make_algebra(5, field, [])]:
            n, M = A.dim, build_matrix(A)
            r = rank(M)
            assert r < n * n and triples and moduli
            maps = _membership_maps(A, rng.split(70, n))
            triples.clear()
            moduli.clear()
            for f in maps:
                is_in_kernel(A, f, matrix=M)
            assert triples == [] and moduli == []
            K = build_matrix(A)
            basis = kernel_basis(K)
            moduli.clear()
            assert rank(K) == r == n * n - basis.nullity and moduli == []


def _lie_algebra(field, n: int, seed: int):
    """One of the Lie algebras of dimension n (3 to 5) over field that the
    samples provide, chosen by seed: its Hom-Jacobi matrix is rank deficient."""
    pool = [A for A in moved_lie_algebras(field) + list(lie_algebras(field).values()) if A.dim == n]
    return pool[seed % len(pool)]


@settings(max_examples=30)
@given(field=st.sampled_from(LAZY_FIELDS), n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_nullity_is_a_transport_invariant(field, n, seed):
    # A and A.transport(g) are isomorphic, so their Hom-Jacobi systems have
    # kernels of the same dimension
    g = random_invertible_map(n, field, seed, bound=3)
    for A in (random_algebra(n, field, rng.split(seed, 1), bound=3), _lie_algebra(field, n, seed)):
        assert nullity(build_matrix(A.transport(g))) == nullity(build_matrix(A))


@settings(max_examples=30)
@given(p=st.sampled_from([2, 3, 5, 7, 10007]), n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1),
       lie=st.booleans())
def test_reduction_mod_p_never_lowers_the_nullity(p, n, seed, lie):
    # the rows over F_p are the reductions of the integer rows, whose rank
    # mod p is at most their rank over Q; a Lie algebra moved by a seeded
    # map has denominators, and primes dividing one have no reduction
    A = moved(_lie_algebra(QQ, n, seed), seed) if lie else random_algebra(n, QQ, seed, bound=5)
    assume(all(x.denominator % p for vec in A.constants.values() for x in vec))
    B = make_algebra(n, PrimeField(p), [(i, j, [reduce_mod(x, p) for x in vec])
                                        for (i, j), vec in A.constants.items()])
    assert nullity(build_matrix(B)) >= nullity(build_matrix(A))


def test_certificate_falls_back_when_the_minor_is_singular():
    # over F_3 the cyclic minor is often singular while M has full rank;
    # the elimination must then go on past the cyclic rows, whether rank,
    # kernel or membership runs it first, for a map that only the cyclic
    # rows annihilate
    fallbacks = 0
    for n in (4, 5, 6):
        for t in range(8):
            A = random_algebra(n, PrimeField(3), rng.split(64 + n, t))
            M = build_matrix(A)
            full = _assert_rank_matches_oracle(M)
            if full and rank_det_modp(_cyclic_rows(M), 3)[0] < M.ncols:
                assert kernel_basis(M).maps == []
                f = LinearMap.from_flat(n, A.field, nullspace_modp(_cyclic_rows(M), M.ncols, 3)[0])
                assert not is_in_kernel(A, f, matrix=M)
                assert not is_in_kernel(A, f, matrix=build_matrix(A))
                fallbacks += 1
    assert fallbacks > 0


def test_certificate_is_sound_with_its_prime_in_a_denominator(qq):
    # over Q the cyclic rows are first reduced mod the prime P whatever the
    # denominators: that step may fail to decide, but the rank stays exact
    A = random_algebra(5, qq, seed=65, bound=5)
    (i, j), vec = next(iter(A.constants.items()))
    scaled = dict(A.constants)
    scaled[(i, j)] = (vec[0] / CERTIFICATE_PRIME, *vec[1:])
    B = make_algebra(5, qq, [(i, j, v) for (i, j), v in scaled.items()])
    M = build_matrix(B)
    assert _assert_rank_matches_oracle(build_matrix(A))
    assert any(x.denominator % CERTIFICATE_PRIME == 0 for row in M.rows for x in row)
    # with P in one denominator the integer rows are mostly 0 mod P
    assert rank_det_modp([[x % CERTIFICATE_PRIME for x in row] for row in M.int_rows],
                         CERTIFICATE_PRIME)[0] < M.ncols
    assert _assert_rank_matches_oracle(M)
    assert rank(M) == rank_fraction(M.rows) == M.ncols
    assert kernel_basis(M).nullity == 0
    # dividing every constant by P scales M by 1/P^2 and leaves the integer
    # rows as they were
    C = make_algebra(5, qq, [(i, j, [x / CERTIFICATE_PRIME for x in v])
                             for (i, j), v in A.constants.items()])
    assert _assert_rank_matches_oracle(build_matrix(C))
    # a rank-deficient algebra with P in every denominator stays deficient
    for D in moved_lie_algebras(qq):
        D = make_algebra(D.dim, qq, [(i, j, [x / CERTIFICATE_PRIME for x in v])
                                     for (i, j), v in D.constants.items()])
        assert not _assert_rank_matches_oracle(build_matrix(D))


@settings(max_examples=40)
@given(n=st.integers(4, 6), p=st.sampled_from([2, 3, 5, 7, 10007]),
       seed=st.integers(0, 2**32 - 1))
def test_rank_matches_oracle_over_small_primes(n, p, seed):
    _assert_rank_matches_oracle(build_matrix(random_algebra(n, PrimeField(p), seed)))


def test_build_matrix_rejects_oversized_input(qq):
    check_size(14)
    assert 14 * triple_count(14) * 14 * 14 <= MAX_ENTRIES < 15 * triple_count(15) * 15 * 15
    for n in (15, 40):
        with pytest.raises(ShapeError, match=f"dimension {n}"):
            build_matrix(make_algebra(n, qq, []))


def test_determinant_rejects_non_square(named):
    M = build_matrix(named["cross_product3"].algebra)
    with pytest.raises(ShapeError, match="rank"):
        determinant(M)


def test_determinant_of_lie_dim4_is_zero(named, qq):
    assert determinant(build_matrix(named["abelian4"].algebra)) == 0
    assert determinant(build_matrix(named["sl2_plus_abelian4"].algebra)) == 0


def test_dim4_determinant_criterion(named, fp):
    # is_hom_lie <=> det == 0, on catalog and random dim-4 samples
    for entry in (named["abelian4"], named["sl2_plus_abelian4"], named["nonhomlie4"]):
        M = build_matrix(entry.algebra)
        assert (determinant(M) == 0) == entry.is_hom_lie
    for t in range(25):
        A = random_algebra(4, fp, rng.split(57, t))
        M = build_matrix(A)
        assert (determinant(M) == 0) == is_hom_lie(A)[0]


def test_quadratic_homogeneity(named):
    A = named["cross_product3"].algebra
    lam = Fraction(5, 3)
    scaled = make_algebra(3, QQ, [
        (i, j, [lam * x for x in vec]) for (i, j), vec in sorted(A.constants.items())
    ])
    M, Ms = build_matrix(A), build_matrix(scaled)
    lam2 = lam * lam
    for r in range(M.nrows):
        assert Ms.rows[r] == [lam2 * x for x in M.rows[r]]
    assert kernel_basis(M).maps == kernel_basis(Ms).maps


def test_restrict_bidiagonal_matches_block_formulas(named):
    A = named["nonhomlie4"].algebra
    M = build_matrix(A)
    R = restrict_columns(M, bidiagonal_support(4))
    assert (R.nrows, R.ncols) == (16, 7)
    assert R.support == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
    # first block row carries 23.1, 31.1, 31.2, 12.2, 12.3, 0, 0
    blocks = [
        _block(A, 2, 3, 1),
        _block(A, 3, 1, 1),
        _block(A, 3, 1, 2),
        _block(A, 1, 2, 2),
        _block(A, 1, 2, 3),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
    ]
    for l in range(4):
        assert R.rows[l] == [b[l] for b in blocks]
    assert rank(R) == 7 and nullity(R) == 0 and kernel_basis(R).maps == []


def test_restrict_diagonal_matches_cyclic_system(named):
    A = named["nonhomlie4"].algebra
    R = restrict_columns(build_matrix(A), diagonal_support(4))
    assert (R.nrows, R.ncols) == (16, 4)
    expected = {
        0: [(2, 3, 1), (3, 1, 2), (1, 2, 3), None],
        1: [(2, 4, 1), (4, 1, 2), None, (1, 2, 4)],
        2: [(3, 4, 1), None, (4, 1, 3), (1, 3, 4)],
        3: [None, (3, 4, 2), (4, 2, 3), (2, 3, 4)],
    }
    for t, cols in expected.items():
        for c, ijk in enumerate(cols):
            want = (0, 0, 0, 0) if ijk is None else _block(A, *ijk)
            assert tuple(R.rows[t * 4 + l][c] for l in range(4)) == tuple(want)


def test_restrict_full_support_is_whole_matrix(named):
    A = named["cross_product3"].algebra
    M = build_matrix(A)
    full = [(p, q) for p in range(1, 4) for q in range(1, 4)]
    R = restrict_columns(M, full)
    assert R == M and R.rows == M.rows and R.support == M.support
    assert kernel_basis(R) == kernel_basis(M)


def test_restricted_solutions_extend_to_kernel(named):
    A = named["cross_product3"].algebra
    M = build_matrix(A)
    R = restrict_columns(M, diagonal_support(3))
    # every diagonal map is a twisting map of the cross product
    assert rank(R) == 0
    maps = kernel_basis(R).maps
    assert [[f.entry(i, i) for i in range(1, 4)] for f in maps] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for f in maps:
        assert all(f.entry(p, q) == 0 for p in range(1, 4) for q in range(1, 4) if p != q)
        assert is_in_kernel(A, f, matrix=M)


def test_restrict_rejects_bad_support(named):
    M = build_matrix(named["cross_product3"].algebra)
    with pytest.raises(ShapeError):
        restrict_columns(M, [])
    with pytest.raises(ShapeError):
        restrict_columns(M, [(0, 1)])
    with pytest.raises(ShapeError):
        restrict_columns(M, [(1, 4)])
    # a position is a pair of integer indices: no bool, float or triple
    for bad in [(True, 2)], [(1.5, 1)], [(1, 2, 3)], [5], ["12"]:
        with pytest.raises(ShapeError):
            restrict_columns(M, bad)
    # a restricted matrix only has the columns it kept
    R = restrict_columns(M, diagonal_support(3))
    assert restrict_columns(R, [(2, 2)]).rows == [[row[1]] for row in R.rows]
    with pytest.raises(ShapeError):
        restrict_columns(R, [(1, 2)])


def _supports(n, s):
    """Diagonal, bidiagonal and two seeded random supports (about a third
    of the positions each, listed in (p, q) order)."""
    positions = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)]
    rand = [[pq for pq in positions if s.below(3) == 0] or [(1, 1)] for _ in range(2)]
    return [diagonal_support(n), bidiagonal_support(n), *rand]


def test_restricted_systems_match_oracles(fp, qq):
    # generic algebras and moved Lie algebras (rank deficient) at n = 4..6,
    # restricted to diag, bidiag and random supports; rank and nullity
    # against the oracles on the selected columns
    full_rank = set()
    for field in (fp, qq):
        cases = [random_algebra(n, field, rng.split(66, n), bound=5) for n in (4, 5, 6)]
        cases += [A for A in moved_lie_algebras(field) if A.dim >= 4]
        cases.append(moved(lie_algebras(field)["sl2+sl2"], rng.split(67, 0)))
        for t, A in enumerate(cases):
            n, M = A.dim, build_matrix(A)
            for support in _supports(n, rng.stream(68, t)):
                R = restrict_columns(M, support)
                assert R.support == tuple(sorted(set(support), key=lambda pq: (pq[1], pq[0])))
                assert R.rows == [[row[(q - 1) * n + p - 1] for p, q in R.support] for row in M.rows]
                if _assert_rank_matches_oracle(R):
                    full_rank.add(field)
                maps = kernel_basis(R).maps
                assert nullity(R) == len(maps)
                for f in maps:
                    assert all(f.entry(p, q) == 0 for p in range(1, n + 1) for q in range(1, n + 1)
                               if (p, q) not in R.support)
                    assert is_in_kernel(A, f, matrix=M)
    assert full_rank == {fp, qq}


def test_generic_reduced_rank_is_deterministic(fp):
    h1 = generic_reduced_rank(20, fp, seed=58)
    h2 = generic_reduced_rank(20, fp, seed=58)
    assert h1 == h2
    assert sum(h1.values()) == 20


def test_reduced_rank_of_abelian_is_zero(qq):
    A = make_algebra(4, qq, [])
    R = restrict_columns(build_matrix(A), bidiagonal_support(4))
    assert rank(R) == 0 and nullity(R) == 7


def test_is_hom_lie_examples(named, fp):
    ok, witness = is_hom_lie(named["nonhomlie4"].algebra)
    assert not ok and witness is None
    for t in range(10):
        A = random_algebra(3, fp, rng.split(59, t))
        ok, witness = is_hom_lie(A)
        assert ok and not witness.is_zero()
        assert is_in_kernel(A, witness)


def test_witness_of_lie_algebra_exists(named):
    for name in ("abelian4", "heisenberg3", "cross_product3", "sl2_plus_abelian4"):
        ok, witness = is_hom_lie(named[name].algebra)
        assert ok and witness is not None and not witness.is_zero()
