from fractions import Fraction

import pytest

from homlie import (
    FieldMismatchError,
    LinearMap,
    ShapeError,
    SingularMatrixError,
    make_algebra,
    random_algebra,
    random_invertible_map,
    random_linear_map,
    rng,
)
from homlie.field import QQ


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
                neg = tuple(A.field.neg(x) for x in A.multiply(ej, ei))
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
        assert j1 == tuple(fp.neg(v) for v in j2)


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


def test_linear_map_validates_shape(qq):
    with pytest.raises(ShapeError):
        LinearMap(3, qq, [[qq.zero] * 3] * 2)
    with pytest.raises(ShapeError):
        LinearMap.from_flat(3, qq, [qq.zero] * 8)


def test_algebras_are_immutable(named):
    A = named["cross_product3"].algebra
    with pytest.raises(AttributeError):
        A.dim = 5
    f = LinearMap.identity(3, QQ)
    with pytest.raises(AttributeError):
        f.columns = ()
