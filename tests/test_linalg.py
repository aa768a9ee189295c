from fractions import Fraction
from itertools import chain
from math import prod

import pytest

from homlie import (
    FieldMismatchError,
    LinearMap,
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
from homlie.field import QQ, _unlift
from homlie import linalg

from oracles import det_cofactor_modp, det_naive, rank_det_modp, rank_fraction
from oracles import mat_vec as oracle_mat_vec


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
    s = rng.stream(15, 0)
    cases = [[], [[0]], [[1, 2], [2, 4]]]  # 0x0, singular
    for _ in range(25):
        n = s.randint(1, 6)
        m = _random_int_matrix(s, n, n)
        cases.append(m)
        # singular over Z: the last row repeats the first
        cases.append(m[:-1] + [m[0]] if n > 1 else [[0]])
    # 9223372036854775783 is the largest prime below 2^63
    for p in (2, 3, 997, 10007, 9223372036854775783):
        singular = 0
        for m in cases:
            di = linalg.det_bareiss_int(m)
            dp = linalg.det(PrimeField(p), [[x % p for x in r] for r in m])
            assert dp == di % p, (p, m)
            assert det_cofactor_modp(m, p) == rank_det_modp(m, p)[1] == di % p, (p, m)
            singular += dp == 0
        assert singular >= 27, p


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
            lifted, e = linalg._inverse(m, 1, field.p)
            inv = [_unlift(field, row, e) for row in lifted]
            for c in range(n):
                column = [row[c] for row in inv]
                assert oracle_mat_vec(rows, column, field.p) == [int(r == c) for r in range(n)]


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg._inverse([[1, 2], [2, 4]], 1, 0)
    with pytest.raises(SingularMatrixError):
        LinearMap(2, QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]).inverse()


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
        lambda: LinearMap(2, field, mat).inverse(),
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
    lifted, e = linalg._inverse([[2, 3], [4, 5]], 1, 0)
    inv = [_unlift(QQ, row, e) for row in lifted]
    assert inv == [[Fraction(-5, 2), Fraction(3, 2)], [2, -1]]
    for x in (x for m in (red, basis, inv) for row in m for x in row):
        assert type(x) in (int, Fraction)


def test_rational_elimination_keeps_entries_minor_sized():
    # each row the Q core clears is divided by its content, so it stays a
    # primitive multiple of a row of minors of the input and every entry is
    # within the Hadamard bound, in the echelon rows of the forward pass and
    # in the back-substituted ones; without the division the bit length
    # doubles with every pivot
    s = rng.stream(17, 0)
    for _ in range(10):
        m = _random_int_matrix(s, 14, 12)
        bound = prod(max(1, sum(x * x for x in row)) for row in m)  # Hadamard bound, squared
        rows = [list(row) for row in m]
        basis, pivots = linalg._eliminate(rows, 12, 0)
        assert rows == m  # the core reads its rows and never modifies them
        assert basis != m[: len(basis)]
        red, red_pivots = linalg._back(basis, pivots, 0)
        assert red_pivots == sorted(pivots)
        # each back-substituted row is the primitive integer multiple of its
        # RREF row, the lift of that row up to sign
        rref_rows = [[Fraction(x, row[c]) for x in row] for row, c in zip(red, red_pivots)]
        assert [[abs(x) for x in row] for row in red] == [
            [abs(x) for x in QQ.lift(row)[0]] for row in rref_rows]
        for echelon in (basis, red):
            assert all(x * x <= bound for row in echelon for x in row)


def test_elimination_stops_at_full_column_rank():
    # once ncols pivots are found no further row is read
    def unread():
        raise AssertionError("row read after full column rank")
        yield

    s = rng.stream(18, 0)
    for p in (0, 2, 10007):
        for ncols in (1, 4, 9):
            # unit upper triangular, fed bottom row first
            rows = [[int(i == j) or (j > i) * s.below(3) for j in range(ncols)]
                    for i in reversed(range(ncols))]
            basis, pivots = linalg._eliminate(chain(rows, unread()), ncols, p)
            assert len(basis) == ncols and sorted(pivots) == list(range(ncols))


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
