from fractions import Fraction

import pytest

from homlie import (
    FieldMismatchError,
    PrimeField,
    ShapeError,
    SingularMatrixError,
    build_matrix,
    catalog,
    make_algebra,
    random_algebra,
    random_invertible_map,
    reduce_mod,
    rng,
)
from homlie.field import QQ
from homlie import linalg

from oracles import det_cofactor_modp, det_naive, rank_det_modp, rank_fraction


def _random_int_matrix(s, nrows, ncols, bound=9):
    return [[s.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_known_matrix():
    rows = [[Fraction(x) for x in r] for r in [[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
    red, pivots = linalg.rref(QQ, rows)
    assert pivots == [0, 1]
    assert red[0] == [1, 0, 1]
    assert red[1] == [0, 1, 1]
    assert red[2] == [0, 0, 0]


def test_rank_matches_fraction_oracle_on_randoms():
    s = rng.stream(11, 0)
    for _ in range(40):
        m = _random_int_matrix(s, s.randint(1, 6), s.randint(1, 6))
        rows = [[Fraction(x) for x in r] for r in m]
        assert linalg.rank(QQ, rows) == rank_fraction(m)


def test_rank_modp_matches_rational_rank_for_generic_small():
    p = PrimeField(10007)
    s = rng.stream(12, 0)
    for _ in range(30):
        m = _random_int_matrix(s, 5, 7)
        rq = linalg.rank(QQ, [[Fraction(x) for x in r] for r in m])
        rp = linalg.rank(p, [[x % p.p for x in r] for r in m])
        assert rp <= rq  # rank can only drop mod p
        # with entries this small and p this large, equality in fact holds
        assert rp == rq


def test_nullspace_is_canonical_and_annihilated():
    s = rng.stream(13, 0)
    for _ in range(25):
        m = _random_int_matrix(s, 4, 6)
        rows = [[Fraction(x) for x in r] for r in m]
        basis = linalg.nullspace(QQ, rows, 6)
        assert len(basis) == 6 - linalg.rank(QQ, rows)
        red, pivots = linalg.rref(QQ, rows)
        free = [c for c in range(6) if c not in pivots]
        assert len(basis) == len(free)
        for v, f in zip(basis, free):
            assert v[f] == 1
            # free coordinates other than f vanish
            assert all(v[g] == 0 for g in free if g != f)
            assert all(x == 0 for x in linalg.mat_vec(QQ, rows, v))


def test_zero_row_matrix_has_full_nullspace():
    basis = linalg.nullspace(QQ, [], 4)
    assert len(basis) == 4
    for i, v in enumerate(basis):
        assert v[i] == 1 and sum(1 for x in v if x != 0) == 1


def test_det_known_values():
    assert linalg.det(QQ, []) == 1
    assert linalg.det(QQ, [[Fraction(5)]]) == 5
    assert linalg.det(QQ, [[1, 2], [3, 4]]) == -2
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert linalg.det(QQ, rows) == Fraction(1, 10) - Fraction(1, 12)


def test_det_bareiss_matches_naive_oracle():
    s = rng.stream(14, 0)
    for _ in range(25):
        n = s.randint(1, 5)
        m = _random_int_matrix(s, n, n)
        assert linalg.det_bareiss_int(m) == det_naive(m)


def test_det_modp_matches_integer_det():
    p = PrimeField(997)
    s = rng.stream(15, 0)
    for _ in range(25):
        n = s.randint(1, 6)
        m = _random_int_matrix(s, n, n)
        di = linalg.det_bareiss_int(m)
        dp = linalg.det(p, [[x % 997 for x in r] for r in m])
        assert dp == di % 997
        assert det_cofactor_modp(m, 997) == di % 997


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        linalg.det(QQ, [[1, 2, 3], [4, 5, 6]])


def test_inverse_round_trip():
    s = rng.stream(16, 0)
    p = PrimeField(101)
    for field in (QQ, p):
        for _ in range(15):
            n = s.randint(1, 5)
            while True:
                m = _random_int_matrix(s, n, n, bound=5)
                rows = [[field.element(x) for x in r] for r in m]
                if linalg.rank(field, rows) == n:
                    break
            inv = linalg.inverse(field, rows)
            assert linalg.mat_mul(field, rows, inv) == linalg.identity(field, n)


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg.inverse(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_known_leaks_are_rejected():
    with pytest.raises(FieldMismatchError):
        linalg.det(QQ, [[0.1]])
    with pytest.raises(FieldMismatchError):
        linalg.rref(QQ, [[1, 0.5]])
    with pytest.raises(FieldMismatchError):
        linalg.det(PrimeField(7), [[Fraction(1, 2)]])


@pytest.mark.parametrize("field, bad", [
    (QQ, 0.5),
    (QQ, True),
    (PrimeField(7), Fraction(1, 2)),
    (PrimeField(7), 3.0),
], ids=["rational-float", "rational-bool", "prime-fraction", "prime-float"])
def test_every_entry_point_checks_its_scalars(field, bad):
    one, zero = field.one, field.zero
    mat = [[one, zero], [bad, one]]
    calls = [
        lambda: linalg.rank(field, mat),
        lambda: linalg.rref(field, mat),
        lambda: linalg.nullspace(field, mat, 2),
        lambda: linalg.det(field, mat),
        lambda: linalg.inverse(field, mat),
        lambda: linalg.mat_vec(field, mat, [one, one]),
        lambda: linalg.mat_vec(field, [[one, one]], [one, bad]),
    ]
    for call in calls:
        with pytest.raises(FieldMismatchError):
            call()


def test_rational_int_matrices_stay_exact():
    rows = [[2, 3, 1], [4, 5, 7]]
    red, pivots = linalg.rref(QQ, rows)
    assert pivots == [0, 1]
    assert red == [[1, 0, 8], [0, 1, -5]]
    basis = linalg.nullspace(QQ, rows, 3)
    assert basis == [[-8, 5, 1]]
    inv = linalg.inverse(QQ, [[2, 3], [4, 5]])
    assert inv == [[Fraction(-5, 2), Fraction(3, 2)], [2, -1]]
    for x in (x for m in (red, basis, inv) for row in m for x in row):
        assert type(x) in (int, Fraction)


FP = PrimeField(10007)


def _fp_hom_jacobi_inputs():
    """Seeded F_10007 Hom-Jacobi matrices for n = 3..6, full and deficient."""
    out = []
    for n in range(3, 7):
        for t in range(3):
            out.append(build_matrix(random_algebra(n, FP, rng.split(500 + n, t))))
    for t, named in enumerate(catalog()):
        A = named.algebra
        products = [(i, j, [reduce_mod(x, FP.p) for x in vec]) for (i, j), vec in A.constants.items()]
        reduced = make_algebra(A.dim, FP, products)
        out.append(build_matrix(reduced))
        out.append(build_matrix(reduced.transport(random_invertible_map(A.dim, FP, 600 + t))))
    return out


def test_prime_field_elimination_matches_modp_oracle():
    matrices = _fp_hom_jacobi_inputs()
    full_rank = set()
    for k, M in enumerate(matrices):
        r, d = rank_det_modp(M.rows, FP.p)
        assert linalg.rank(FP, M.rows) == r
        full_rank.add(r == M.ncols)
        if M.dim == 4:
            assert linalg.det(FP, M.rows) == d
        basis = linalg.nullspace(FP, M.rows, M.ncols)
        assert len(basis) == M.ncols - r
        for v in basis:
            assert all(x == 0 for x in linalg.mat_vec(FP, M.rows, v))
        stream = rng.stream(700, k)
        order = list(range(M.nrows))
        for i in range(len(order) - 1, 0, -1):
            j = stream.below(i + 1)
            order[i], order[j] = order[j], order[i]
        permuted = [M.rows[i] for i in order]
        assert linalg.rref(FP, permuted) == linalg.rref(FP, M.rows)
    assert full_rank == {True, False}
