from fractions import Fraction
from itertools import chain, combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import homlie.linalg
from homlie import (
    FieldMismatchError,
    LinearMap,
    PrimeField,
    ShapeError,
    SingularMatrixError,
    SkewAlgebra,
    make_algebra,
    random_algebra,
    random_invertible_map,
    random_linear_map,
    rng,
)
from homlie.algebra import DEFAULT_BOUND, MAX_ENTRIES, _scalar_draw, check_transport_size
from homlie.field import QQ, _lift_rows, _unlift
from oracles import mat_vec as oracle_mat_vec, rank_det_modp, rank_fraction


def test_make_algebra_example_products(named):
    A = named["nonhomlie4"].algebra
    e1, e2 = A.basis_vector(1), A.basis_vector(2)
    assert A.multiply(e1, e2) == (0, 1, 2, -1)
    assert A.multiply(e2, e1) == (0, -1, -2, 1)


def test_make_algebra_empty_is_abelian(qq):
    A = make_algebra(3, qq, [])
    zero = A.zero_vector()
    for i in range(1, 4):
        for j in range(1, 4):
            assert A.multiply(A.basis_vector(i), A.basis_vector(j)) == zero


def test_make_algebra_rejects_bad_products(qq):
    with pytest.raises(ValueError, match="ordered"):
        make_algebra(3, qq, [(2, 1, [0, 0, 1])])
    with pytest.raises(ValueError, match="duplicate"):
        make_algebra(3, qq, [(1, 2, [0, 0, 1]), (1, 2, [0, 0, 2])])
    with pytest.raises(ShapeError):
        make_algebra(3, qq, [(1, 2, [0, 0])])
    with pytest.raises(ValueError, match="range"):
        make_algebra(3, qq, [(1, 4, [0, 0, 1])])
    with pytest.raises(ValueError):
        make_algebra(0, qq, [])


def test_multiply_is_skew_on_basis(named):
    for entry in named.values():
        A = entry.algebra
        for i in range(1, A.dim + 1):
            ei = A.basis_vector(i)
            assert A.multiply(ei, ei) == A.zero_vector()
            for j in range(1, A.dim + 1):
                ej = A.basis_vector(j)
                neg = A.field.vector(-x for x in A.multiply(ej, ei))
                assert A.multiply(ei, ej) == neg


def test_multiply_is_bilinear_on_randoms(fp):
    A = random_algebra(4, fp, seed=31)
    s = rng.stream(32, 0)
    for _ in range(20):
        x = tuple(s.below(fp.p) for _ in range(4))
        xp = tuple(s.below(fp.p) for _ in range(4))
        y = tuple(s.below(fp.p) for _ in range(4))
        lam = s.below(fp.p)
        left = A.multiply(tuple((a + lam * b) % fp.p for a, b in zip(x, xp)), y)
        right = tuple(
            (u + lam * v) % fp.p
            for u, v in zip(A.multiply(x, y), A.multiply(xp, y))
        )
        assert left == right


def test_scalars_are_checked_at_the_boundary(named, f7):
    # every entry is checked, zero or not, and whether or not it meets a
    # zero in the arithmetic
    bad_maps = [
        (3, QQ, [[0.0, 0, 0], [0, 1, 0], [0, 0, 1]]),
        (3, QQ, [[1, 0, 0], [0, 0.5, 0], [0, 0, 1]]),
        (2, f7, [[True, 0], [0, 1]]),
        (2, f7, [[Fraction(1, 2), 0], [0, 1]]),
    ]
    for dim, field, cols in bad_maps:
        with pytest.raises(FieldMismatchError):
            LinearMap(dim, field, cols)
    A = named["cross_product3"].algebra
    f = LinearMap.identity(3, QQ)
    for bad in ((0.0, 1, 0), (0.5, 1, 0), (True, 0, 0)):
        with pytest.raises(FieldMismatchError):
            A.multiply(bad, (1, 0, 0))
        with pytest.raises(FieldMismatchError):
            A.multiply((1, 0, 0), bad)
        with pytest.raises(FieldMismatchError):
            f.apply(bad)
    B = random_algebra(3, f7, seed=30)
    g = LinearMap.identity(3, f7)
    for bad in ((Fraction(1, 2), 0, 0), (0, 3.0, 1), (0, 1, False)):
        with pytest.raises(FieldMismatchError):
            B.multiply(bad, (1, 2, 3))
        with pytest.raises(FieldMismatchError):
            g.apply(bad)


def test_multiply_rejects_bad_shapes(named):
    A = named["cross_product3"].algebra
    with pytest.raises(ShapeError):
        A.multiply((1, 0), (0, 1, 0))


def test_jacobiator_vanishes_on_lie_algebras(named):
    for name in ("cross_product3", "heisenberg3", "abelian3", "sl2_plus_abelian4"):
        A = named[name].algebra
        e = [A.basis_vector(i) for i in range(1, A.dim + 1)]
        assert A.jacobiator(e[0], e[1], e[2]) == A.zero_vector()


def test_jacobiator_nonzero_on_nonhomlie4(named):
    A = named["nonhomlie4"].algebra
    jac = A.jacobiator(A.basis_vector(1), A.basis_vector(2), A.basis_vector(3))
    assert jac != A.zero_vector()


def test_jacobiator_is_alternating_on_randoms(fp):
    A = random_algebra(4, fp, seed=33)
    s = rng.stream(34, 0)
    for _ in range(10):
        x, y, z = (tuple(s.below(fp.p) for _ in range(4)) for _ in range(3))
        j1 = A.jacobiator(x, y, z)
        j2 = A.jacobiator(y, x, z)
        assert j1 == fp.vector(-v for v in j2)


def test_is_lie_on_catalog(named):
    for entry in named.values():
        assert entry.algebra.is_lie() == entry.is_lie


def test_transport_by_identity(named):
    A = named["cross_product3"].algebra
    assert A.transport(LinearMap.identity(3, QQ)) == A


def test_transport_by_scaling_rescales_constants(named):
    A = named["cross_product3"].algebra
    lam = Fraction(3)
    g = LinearMap(3, QQ, [[lam if p == q else Fraction(0) for p in range(3)] for q in range(3)])
    moved = A.transport(g)
    for pair, vec in A.constants.items():
        assert moved.constants[pair] == tuple(x / lam for x in vec)


def test_transport_preserves_lie_property(named):
    A = named["heisenberg3"].algebra
    for t in range(10):
        g = random_invertible_map(3, QQ, rng.split(35, t), bound=5)
        assert A.transport(g).is_lie()


def test_transport_is_a_left_action(named, fp):
    A = random_algebra(3, fp, seed=36)
    g = random_invertible_map(3, fp, seed=37)
    h = random_invertible_map(3, fp, seed=38)
    assert A.transport(g).transport(h) == A.transport(h.compose(g))


def test_transport_round_trip(named):
    A = named["sl2_plus_abelian4"].algebra
    g = random_invertible_map(4, QQ, seed=39, bound=4)
    assert A.transport(g).transport(g.inverse()) == A


def test_transport_rejects_singular_map(named):
    A = named["cross_product3"].algebra
    g = LinearMap.zero(3, QQ)
    with pytest.raises(SingularMatrixError):
        A.transport(g)


def test_transport_size_guard_admits_dimension_126_and_refuses_127():
    # n * C(n, 2) moved constants: 992,250 at n = 126, 1,016,127 at n = 127
    assert 126 * 126 * 125 // 2 <= MAX_ENTRIES < 127 * 127 * 126 // 2
    check_transport_size(126)
    with pytest.raises(ShapeError, match="dimension 127: .* 1,016,127 structure constants"):
        check_transport_size(127)


def test_oversized_transport_is_refused_before_inverting(monkeypatch):
    A = make_algebra(127, QQ, [])
    g = LinearMap.identity(127, QQ)

    def inverse(*args):
        raise AssertionError("g was inverted")

    monkeypatch.setattr(homlie.linalg, "_inverse", inverse)
    with pytest.raises(ShapeError, match="dimension 127"):
        A.transport(g)


def test_transport_rejects_field_mismatch(named, f7):
    A = named["cross_product3"].algebra
    with pytest.raises(FieldMismatchError):
        A.transport(LinearMap.identity(3, f7))


def test_random_algebra_is_deterministic(fp, qq):
    for field in (fp, qq):
        a = random_algebra(4, field, seed=40)
        b = random_algebra(4, field, seed=40)
        assert a == b
        assert a != random_algebra(4, field, seed=41)


def test_random_algebra_respects_bound(qq):
    A = random_algebra(5, qq, seed=42, bound=3)
    for vec in A.constants.values():
        for x in vec:
            assert x.denominator == 1 and -3 <= x <= 3


def test_rational_draws_reject_empty_bound(qq, fp):
    # bound 0 would draw only zero maps, and rejection sampling would never stop
    for draw in (random_algebra, random_linear_map, random_invertible_map):
        with pytest.raises(ValueError):
            draw(3, qq, 1, bound=0)
    assert random_invertible_map(3, fp, 1, bound=0).dim == 3


def _rank_tested_draw(dim, fld, seed, bound=DEFAULT_BOUND):
    """(g, candidates): the rank-tested rejection loop that the inversion
    test replaced. Draw a candidate from the (seed, 0) stream, accept it
    when its rank is dim."""
    draw = _scalar_draw(fld, bound)
    s = rng.stream(seed, 0)
    candidates = 0
    while True:
        candidates += 1
        g = LinearMap(dim, fld, [[draw(s) for _ in range(dim)] for _ in range(dim)])
        if homlie.linalg.rank(fld, g.columns) == dim:
            return g, candidates


def test_invertible_draw_matches_the_rank_tested_loop(monkeypatch):
    """random_invertible_map draws the same map as the rank-tested loop,
    inverts each candidate once, by the lifted core `linalg._inverse`, and
    ranks none, and its map returns the inverse of its columns with no
    further elimination. F_2 and F_3 reject often, so the singular path
    runs too."""
    original_rank = homlie.linalg.rank
    original_core = homlie.linalg._inverse
    calls = []

    def counted_core(rows, d, p):
        calls.append("inverse")
        return original_core(rows, d, p)

    def counted_rank(fld, mat):
        calls.append("rank")
        return original_rank(fld, mat)

    rejected = 0
    for fld in (QQ, PrimeField(2), PrimeField(3), PrimeField(10007)):
        identity = {n: LinearMap.identity(n, fld) for n in range(6)}
        for n in range(6):
            for seed in range(40):
                want, candidates = _rank_tested_draw(n, fld, seed)
                rejected += candidates - 1
                monkeypatch.setattr(homlie.linalg, "_inverse", counted_core)
                monkeypatch.setattr(homlie.linalg, "rank", counted_rank)
                calls.clear()
                g = random_invertible_map(n, fld, seed)
                assert calls == ["inverse"] * candidates, (fld, n, seed)
                calls.clear()
                inv = g.inverse()
                assert g.inverse() is inv and calls == [], (fld, n, seed)
                monkeypatch.undo()
                assert g == want and g.columns == want.columns, (fld, n, seed)
                assert inv == LinearMap(n, fld, g.columns).inverse()
                assert g.compose(inv) == inv.compose(g) == identity[n]
    assert rejected > 100


def test_built_maps_keep_no_inverse(qq, f7):
    # a map built by a caller keeps the lift made at construction, but
    # computes a fresh inverse on each call and keeps none; equality
    # ignores a drawn map's kept inverse
    f = LinearMap(2, qq, [[Fraction(1, 2), 1], [1, 1]])
    assert f.inverse() == f.inverse() and f.inverse() is not f.inverse()
    assert f.lift() == (((1, 2), (2, 2)), 2) and f.lift() is f.lift()
    assert f._inverse is None
    g = random_invertible_map(3, f7, seed=7)
    assert g == LinearMap(3, f7, g.columns) and g._inverse is not None
    with pytest.raises(AttributeError):
        g._inverse = None


# Q with signed fractions up to 2^130, the smallest primes, a mid-size one
# and a 61-bit one
LIFT_FIELDS = [QQ] + [PrimeField(p) for p in (2, 3, 10007, 2**61 - 1)]
LIFT_FIELD_IDS = ["QQ", "F2", "F3", "F10007", "F2^61-1"]
BIG = 2**130


def _assert_canonical(fld, lift, values):
    """lift is the canonical lift of values (columns, or the constants of
    the nonzero pairs): residues and d = 1 over F_p, gcd(d, ints) = 1 over
    Q, and equal to `_lift_rows` of the values as tuples."""
    assert lift is not None
    ints, d = lift
    vecs = list(ints.values()) if isinstance(ints, dict) else list(ints)
    if fld.p:
        assert d == 1 and all(0 <= x < fld.p for vec in vecs for x in vec)
    else:
        assert d >= 1 and gcd(d, *chain.from_iterable(vecs)) == 1
    rows, e = _lift_rows(fld, list(values))
    assert (vecs, d) == ([tuple(row) for row in rows], e)


@st.composite
def _lifted_matrices(draw, fld):
    """(n, ints, d, values): n <= 5 integer columns, signed and unreduced
    over F_p, a denominator d (1 over F_p) sharing a random factor with
    them, and the field values ints / d. Small entries make singular
    matrices likely."""
    n = draw(st.integers(0, 5))
    entry = st.integers(-BIG, BIG) | st.integers(-2, 2)
    ints = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    d = 1
    if not fld.p:
        k = draw(st.integers(1, 2**20))
        ints, d = [[k * x for x in col] for col in ints], k * draw(st.integers(1, BIG))
    values = [[Fraction(x, d) for x in col] for col in ints] if not fld.p else ints
    return n, ints, d, values


@pytest.mark.parametrize("fld", LIFT_FIELDS, ids=LIFT_FIELD_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_maps_from_integers_equal_maps_from_values(fld, data):
    """A map built from integers equals the map built from its values,
    with the same columns and flattening. Every constructor path (values,
    `from_flat`, integers) holds from construction the canonical lift
    `_lift_rows` gives for those values, and the map built from that lift
    equals it."""
    n, ints, d, values = data.draw(_lifted_matrices(fld))
    m, v = LinearMap._from_ints(fld, ints, d), LinearMap(n, fld, values)
    flat = LinearMap.from_flat(n, fld, [x for col in values for x in col])
    assert m == v and v == m and flat == v and m.dim == v.dim == n
    for x in (m, v, flat):
        _assert_canonical(fld, x._lift, v.columns)
        assert x.lift() is x._lift
    assert m.columns == v.columns and m.flatten() == v.flatten()
    assert m.lift() == v.lift() == flat.lift()
    for x in (m, v):
        back = LinearMap._from_ints(fld, *x.lift())
        assert back == x and x == back and back.columns == v.columns


@pytest.mark.parametrize("fld", LIFT_FIELDS, ids=LIFT_FIELD_IDS)
@settings(max_examples=40)
@given(data=st.data(), singular=st.booleans(), c=st.integers(-2, 2))
def test_lifted_inverse_is_the_canonical_lift_of_the_inverse(fld, data, singular, c):
    """linalg._inverse returns a canonical lift, whose values invert the
    matrix (an oracle product), and LinearMap.inverse builds that inverse;
    a singular matrix, decided by an oracle rank, raises
    SingularMatrixError in both. A singular draw makes the last row c
    times the first."""
    n, ints, d, values = data.draw(_lifted_matrices(fld))
    if singular and n:
        ints[-1] = [c * x for x in ints[0]]
        values[-1] = [c * x for x in values[0]]
    p, f = fld.p, LinearMap(n, fld, values)
    if (rank_det_modp(ints, p)[0] if p else rank_fraction(ints)) < n:
        for invert in (lambda: homlie.linalg._inverse(ints, d, p), f.inverse):
            with pytest.raises(SingularMatrixError):
                invert()
        return
    lifted, e = homlie.linalg._inverse(ints, d, p)
    inv = [_unlift(fld, row, e) for row in lifted]
    assert (lifted, e) == _lift_rows(fld, inv)
    for col in range(n):
        assert oracle_mat_vec(values, [row[col] for row in inv], p) == [int(r == col) for r in range(n)]
    assert f.inverse() == LinearMap(n, fld, inv) and f.inverse().lift() == LinearMap(n, fld, inv).lift()


@pytest.mark.parametrize("fld", LIFT_FIELDS, ids=LIFT_FIELD_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_algebras_from_integers_keep_the_canonical_lift(fld, data):
    """An algebra built from integers equals the algebras built from its
    values by the constructor and by `make_algebra`, with the same
    constants. Every path drops the pairs whose constants are zero and
    holds from construction the canonical lift: residues over F_p, and
    over Q the lift reduced so that gcd(d, ints) = 1, the one `_lift_rows`
    gives for the values. The algebra built from that lift equals it."""
    p = fld.p
    n = data.draw(st.integers(1, 5))
    entry = st.integers(-BIG, BIG) | st.integers(-2, 2)
    vector = st.lists(entry, min_size=n, max_size=n) | st.just([0] * n)
    C = {pair: data.draw(vector) for pair in combinations(range(1, n + 1), 2)
         if data.draw(st.booleans())}
    d = 1
    if not p:
        k = data.draw(st.integers(1, 2**20))
        C, d = {pair: [k * x for x in vec] for pair, vec in C.items()}, k * data.draw(st.integers(1, BIG))
    A = SkewAlgebra._from_ints(n, fld, C, d)
    values = {pair: [x if p else Fraction(x, d) for x in vec] for pair, vec in C.items()}
    twin = make_algebra(n, fld, [(i, j, vec) for (i, j), vec in values.items()])
    built = SkewAlgebra(n, fld, values)
    assert A == twin and twin == A and built == A and A.constants == twin.constants == built.constants
    ints, e = A.lift()
    assert set(ints) == {pair for pair, vec in C.items() if any(x % p if p else x for x in vec)}
    for x in (A, twin, built):
        assert list(x.lift()[0]) == list(ints) and x.lift() is x._lift
        _assert_canonical(fld, x._lift, twin.constants.values())
        assert SkewAlgebra._from_ints(n, fld, *x.lift()) == x


def test_random_algebra_fills_prime_residues(fp):
    A = random_algebra(4, fp, seed=43)
    assert all(0 <= x < fp.p for vec in A.constants.values() for x in vec)


def test_linear_map_flatten_convention(qq):
    f = random_linear_map(3, qq, seed=44)
    flat = f.flatten()
    for q in range(1, 4):
        for p in range(1, 4):
            assert flat[(q - 1) * 3 + (p - 1)] == f.entry(p, q)
    assert LinearMap.from_flat(3, qq, flat) == f


def test_linear_map_apply_and_compose(qq):
    f = random_linear_map(3, qq, seed=45)
    g = random_linear_map(3, qq, seed=46)
    x = (Fraction(1), Fraction(-2), Fraction(3))
    composed = f.compose(g)
    assert composed.apply(x) == f.apply(g.apply(x))
    assert LinearMap.identity(3, qq).apply(x) == x


def test_linear_map_stores_canonical_residues(f7, qq):
    from homlie import files

    f = LinearMap(2, f7, [[8, 0], [0, 1]])
    assert f == LinearMap.identity(2, f7)
    assert files.map_to_obj(f) == files.map_to_obj(LinearMap.identity(2, f7))
    assert files.map_to_obj(f)["columns"] == [["1", "0"], ["0", "1"]]
    assert LinearMap(2, f7, [[-1, 0], [0, 1]]).flatten() == [6, 0, 0, 1]
    # over Q the entries are kept as given
    assert LinearMap(2, qq, [[-1, Fraction(1, 2)], [0, 1]]).flatten() == [-1, Fraction(1, 2), 0, 1]


def test_algebra_constructor_stores_canonical_constants(f7, qq):
    from homlie import files

    A = SkewAlgebra(3, f7, {(1, 2): (8, 0, 0)})
    assert A == make_algebra(3, f7, [(1, 2, (1, 0, 0))]) and A.lift() == ({(1, 2): (1, 0, 0)}, 1)
    assert files.algebra_to_obj(A)["products"][0]["coeffs"] == ["1", "0", "0"]
    assert SkewAlgebra(3, qq, {(1, 2): (0, 0, 0)}) == SkewAlgebra(3, qq, {})
    assert SkewAlgebra(3, f7, {(1, 2): (7, 14, 0)}).constants == {}
    B = SkewAlgebra(3, qq, {(1, 2): (Fraction(1, 2), Fraction(1, 3), 0)})
    assert B.lift() == ({(1, 2): (3, 2, 0)}, 6)
    for field, bad in ((qq, 0.5), (qq, True), (f7, Fraction(1, 2)), (f7, 3.0)):
        with pytest.raises(FieldMismatchError):
            SkewAlgebra(3, field, {(1, 2): (bad, 0, 0)})


def test_linear_map_validates_shape(qq):
    with pytest.raises(ShapeError):
        LinearMap(3, qq, [[qq.zero] * 3] * 2)
    with pytest.raises(ShapeError):
        LinearMap.from_flat(3, qq, [qq.zero] * 8)
    with pytest.raises(ShapeError, match="dimension must be a non-negative integer, got -1"):
        LinearMap(-1, qq, [])


def test_linear_map_entry_positions_are_index_pairs(qq):
    assert LinearMap.from_entries(2, qq, {(1, 2): 5, (2, 2): 1}).columns == ((0, 0), (5, 1))
    for bad in ((True, 1), (1, False), (1.5, 1), (1, 2, 3), (0, 1), (1, 3), "12", 7):
        with pytest.raises(ShapeError):
            LinearMap.from_entries(2, qq, {bad: 1})


def test_algebras_are_immutable(named):
    A = named["cross_product3"].algebra
    with pytest.raises(AttributeError):
        A.dim = 5
    f = LinearMap.identity(3, QQ)
    with pytest.raises(AttributeError):
        f.columns = ()
