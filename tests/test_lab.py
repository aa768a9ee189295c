from fractions import Fraction

import pytest

import homlie.lab
import homlie.linalg
from homlie import (
    LinearMap,
    PrimeField,
    SkewAlgebra,
    build_matrix,
    generic_reduced_rank,
    genericity_experiment,
    invariance_battery,
    is_hom_lie,
    is_in_kernel,
    kernel_basis,
    make_algebra,
    nullity,
    random_algebra,
    random_invertible_map,
    rng,
)
from homlie.algebra import _mat_mul
from homlie.field import QQ, _lift_rows
from homlie.lab import catalog


def test_catalog_expectations_hold(named):
    assert set(named) == {
        "abelian3", "abelian4", "abelian5", "heisenberg3",
        "cross_product3", "nonhomlie4", "sl2_plus_abelian4",
    }
    for entry in named.values():
        A = entry.algebra
        assert A.is_lie() == entry.is_lie, entry.name
        ok, _ = is_hom_lie(A)
        assert ok == entry.is_hom_lie, entry.name
        if entry.nullity is not None:
            assert nullity(build_matrix(A)) == entry.nullity, entry.name


def test_catalog_lie_entries_contain_identity(named):
    for entry in named.values():
        if entry.is_lie:
            A = entry.algebra
            assert is_in_kernel(A, LinearMap.identity(A.dim, A.field))


def test_reports_are_reproducible(fp):
    a = genericity_experiment(3, 25, fp, seed=60)
    b = genericity_experiment(3, 25, fp, seed=60)
    assert a.to_obj() == b.to_obj()
    c = genericity_experiment(3, 25, fp, seed=61)
    assert a.to_obj()["seed"] == 60 and c.to_obj()["seed"] == 61


def test_report_histogram_counts_sum_to_trials(fp):
    r = genericity_experiment(4, 30, fp, seed=62)
    assert sum(r.histogram.values()) == 30
    assert r.full_rank == r.histogram.get(0, 0)


def test_dim3_samples_never_have_full_rank(fp):
    r = genericity_experiment(3, 50, fp, seed=63)
    assert r.full_rank == 0
    assert all(k >= 6 for k in r.histogram)


def test_report_json_schema(fp):
    obj = genericity_experiment(3, 5, fp, seed=64).to_obj()
    assert set(obj) == {"dim", "p", "trials", "seed", "histogram", "full_rank"}
    assert obj["p"] == 10007
    assert all(isinstance(k, str) for k in obj["histogram"])
    assert "elapsed" not in obj


def test_experiment_input_validation(fp, qq):
    with pytest.raises(ValueError):
        genericity_experiment(2, 10, fp, seed=0)
    with pytest.raises(ValueError):
        genericity_experiment(3, 0, fp, seed=0)
    with pytest.raises(ValueError):
        genericity_experiment(3, 10, qq, seed=0)
    # the streams read the seed modulo 2^64, so -1 would alias 2^64 - 1
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError):
            generic_reduced_rank(5, fp, seed)
    assert sum(generic_reduced_rank(5, fp, 2**64 - 1).values()) == 5


def test_invariance_battery_on_catalog(named):
    assert invariance_battery(named["cross_product3"].algebra, trials=20, seed=65)
    assert invariance_battery(named["nonhomlie4"].algebra, trials=5, seed=66)
    assert invariance_battery(named["heisenberg3"].algebra, trials=10, seed=67)


def test_invariance_battery_on_random_prime_algebra(fp):
    A = random_algebra(4, fp, seed=68)
    assert invariance_battery(A, trials=10, seed=69)


def _is_nonzero_multiple(got: LinearMap, want: LinearMap) -> bool:
    """True iff got == c * want for a nonzero scalar c (want nonzero)."""
    p = want.field.p
    x, y = got.flatten(), want.flatten()
    k = next(i for i, b in enumerate(y) if b)
    if p:
        c = x[k] * pow(y[k], -1, p) % p
        return c != 0 and all((a - c * b) % p == 0 for a, b in zip(x, y))
    c = Fraction(x[k]) / y[k]
    return c != 0 and all(a == c * b for a, b in zip(x, y))


def test_invariance_battery_tests_each_conjugated_kernel_map(named, fp, monkeypatch):
    """The battery hands is_in_kernel one multiple of g o f o g^-1 per kernel
    map f and trial, unless the nullity is n^2: then the moved matrices
    are zero and it hands none (see the rank-0 test below). It asks each g
    for its inverse twice (once inside transport), but eliminates g once:
    the inversion core `linalg._inverse` runs once per drawn candidate, in
    the draw, and `linalg.rank` never. No candidate of these seeds is
    singular, so that is once per trial."""
    algebras = [entry.algebra for entry in named.values()]
    algebras += [random_algebra(n, fp, seed=90 + n) for n in (3, 4, 5)]
    trials = 2
    original_inverse = LinearMap.inverse
    original_core, original_rank = homlie.linalg._inverse, homlie.linalg.rank
    conjugated = []
    for A in algebras:
        seen, inverted, eliminated = [], [], []

        def spy(B, f, matrix=None):
            seen.append(f)
            return is_in_kernel(B, f, matrix=matrix)

        def counted_inverse(g):
            inverted.append(g)
            return original_inverse(g)

        def counted_core(rows, d, p):
            eliminated.append("inverse")
            return original_core(rows, d, p)

        def counted_rank(fld, mat):
            eliminated.append("rank")
            return original_rank(fld, mat)

        monkeypatch.setattr(homlie.lab, "is_in_kernel", spy)
        monkeypatch.setattr(LinearMap, "inverse", counted_inverse)
        monkeypatch.setattr(homlie.linalg, "_inverse", counted_core)
        monkeypatch.setattr(homlie.linalg, "rank", counted_rank)
        assert invariance_battery(A, trials=trials, seed=95) is True
        monkeypatch.undo()

        gs = [random_invertible_map(A.dim, A.field, rng.split(95, t)) for t in range(trials)]
        assert inverted == [g for g in gs for _ in range(2)]
        assert eliminated == ["inverse"] * trials
        base = kernel_basis(build_matrix(A)).maps
        if len(base) == A.dim ** 2:
            assert seen == [], A
            continue
        expected = [g.compose(f).compose(g.inverse()) for g in gs for f in base]
        assert len(seen) == len(expected) == len(base) * trials
        assert all(_is_nonzero_multiple(got, want) for got, want in zip(seen, expected))
        conjugated.append(A)
    assert len(conjugated) == 6


class _CountedInt(int):
    """An int that counts the multiplications it takes part in."""

    count = 0

    def __mul__(self, other):
        _CountedInt.count += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_invariance_battery_conjugates_as_the_dense_product(named, monkeypatch):
    """Each map the battery hands is_in_kernel is the dense G·(F·H), integer
    for integer, where F lifts a base kernel map by its common denominator.
    The moved Q algebras have kernel maps whose entries have different
    denominators. Every conjugation product takes an entry of G or of H,
    which the battery reads from `LinearMap.lift`, so counting the
    products of lifted entries counts them all: at most
    nnz(F)·n + |cols(F)|·n², never more than the 2n³ of the dense product.
    transport and is_in_kernel also read lifts, so the count restarts
    when each returns. Every algebra here has 0 < nullity < n², so the
    battery conjugates; the 5-dimensional filiform algebra's kernel maps
    have one nonzero entry each (n + n² products)."""
    filiform5 = make_algebra(5, QQ, [(1, 2, [0, 0, 1, 0, 0]), (1, 3, [0, 0, 0, 1, 0]),
                                     (1, 4, [0, 0, 0, 0, 1])])
    algebras = [
        named["cross_product3"].algebra.transport(random_invertible_map(3, QQ, 99)),
        named["sl2_plus_abelian4"].algebra.transport(random_invertible_map(4, QQ, 5)),
        filiform5,
    ]
    algebras += [random_algebra(n, PrimeField(p), seed=1) for p, n in ((2, 4), (3, 4), (10007, 3))]
    trials, seed = 2, 100

    original_lift, original_transport = LinearMap.lift, SkewAlgebra.transport

    def counted_lift(f):
        ints, d = original_lift(f)
        return tuple(tuple(map(_CountedInt, col)) for col in ints), d

    def transport(B, g):
        moved = original_transport(B, g)
        _CountedInt.count = 0
        return moved

    for A in algebras:
        fld, n = A.field, A.dim
        seen, counts = [], []

        def spy(B, f, matrix=None):
            seen.append(f)
            counts.append(_CountedInt.count)
            answer = is_in_kernel(B, f, matrix=matrix)
            _CountedInt.count = 0
            return answer

        _CountedInt.count = 0
        monkeypatch.setattr(homlie.lab, "is_in_kernel", spy)
        monkeypatch.setattr(LinearMap, "lift", counted_lift)
        monkeypatch.setattr(SkewAlgebra, "transport", transport)
        assert invariance_battery(A, trials=trials, seed=seed) is True
        monkeypatch.undo()

        expected, bounds = [], []
        for t in range(trials):
            g = random_invertible_map(n, fld, rng.split(seed, t))
            G, H = _lift_rows(fld, g.columns)[0], _lift_rows(fld, g.inverse().columns)[0]
            for f in kernel_basis(build_matrix(A)).maps:
                F = _lift_rows(fld, f.columns)[0]
                expected.append(LinearMap(n, fld, _mat_mul(G, _mat_mul(F, H))))
                nnz = sum(1 for col in F for x in col if x)
                bounds.append(nnz * n + sum(map(any, F)) * n * n)
        assert expected and seen == expected, A
        assert all(0 < c <= b <= 2 * n**3 for c, b in zip(counts, bounds)), (A, counts)


@pytest.mark.parametrize("name", ["abelian3", "abelian4", "abelian5", "heisenberg3"])
def test_invariance_battery_forms_no_conjugate_at_rank_0(name, monkeypatch):
    """A 2-step nilpotent algebra has a zero Hom-Jacobi matrix, and so has
    every algebra moved from it: nullity n², every map a twisting map. The
    battery still checks each moved nullity, but forms no conjugated map,
    and answers as the full conjugation path does. A wrong moved nullity
    still returns False."""
    A = next(entry.algebra for entry in catalog() if entry.name == name)
    n, trials, seed = A.dim, 3, 101
    base = kernel_basis(build_matrix(A)).maps
    assert len(base) == n * n
    full = True
    for t in range(trials):
        g = random_invertible_map(n, A.field, rng.split(seed, t))
        moved = A.transport(g)
        moved_matrix = build_matrix(moved)
        full = full and nullity(moved_matrix) == len(base) and all(
            is_in_kernel(moved, g.compose(f).compose(g.inverse()), matrix=moved_matrix)
            for f in base)
    formed, nullities = [], []
    original_combination = homlie.lab._combination

    def combination(terms):
        formed.append(terms)
        return original_combination(terms)

    def spy(B, f, matrix=None):
        formed.append(f)
        return is_in_kernel(B, f, matrix=matrix)

    def counted_nullity(M):
        nullities.append(M)
        return nullity(M)

    monkeypatch.setattr(homlie.lab, "_combination", combination)
    monkeypatch.setattr(homlie.lab, "is_in_kernel", spy)
    monkeypatch.setattr(homlie.lab, "nullity", counted_nullity)
    assert invariance_battery(A, trials=trials, seed=seed) is full is True
    assert formed == [] and len(nullities) == trials
    monkeypatch.setattr(homlie.lab, "nullity", lambda M: n * n - 1)
    assert invariance_battery(A, trials=trials, seed=seed) is False
    assert formed == []


def test_invariance_battery_keeps_the_base_kernel(monkeypatch):
    # the first battery on an algebra keeps its base kernel maps, those of a
    # fresh kernel_basis, built from the lifts `linalg._kernel` returns: over
    # Q the battery never makes their `Fraction` columns. A later call reads
    # no kernel off an RREF (the moved matrices need only their nullity and
    # membership). An equal but distinct algebra and a transported one (even
    # by Id) keep kernels of their own
    kernel, calls = homlie.linalg._kernel, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    for A in (catalog()[-1].algebra, random_algebra(4, PrimeField(7), seed=96)):
        expected = kernel_basis(build_matrix(A)).maps
        monkeypatch.setattr(homlie.linalg, "_kernel", counted)
        calls.clear()
        assert invariance_battery(A, 1, 97) is True and len(calls) == 1
        assert invariance_battery(A, 1, 98) is True and len(calls) == 1
        assert A._kernel == tuple(expected)
        if not A.field.p:
            assert all(f._lift is not None and f._columns is None for f in A._kernel)
        twin = SkewAlgebra(A.dim, A.field, dict(A.constants))
        moved_by_id = A.transport(LinearMap.identity(A.dim, A.field))
        for count, B in enumerate((twin, moved_by_id), start=2):
            assert B == A and B._kernel is None
            assert invariance_battery(B, 1, 99) is True and len(calls) == count
            assert B._kernel == A._kernel
        with pytest.raises(AttributeError):
            A._kernel = None
        monkeypatch.undo()


def test_invariance_battery_validates_trials(named):
    A = named["abelian3"].algebra
    with pytest.raises(ValueError):
        invariance_battery(A, trials=0, seed=0)
    # the streams read the seed modulo 2^64, so -1 would alias 2^64 - 1
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError):
            invariance_battery(A, trials=1, seed=seed)
    assert invariance_battery(A, trials=1, seed=2**64 - 1)


def test_catalog_returns_fresh_objects():
    a, b = catalog(), catalog()
    assert [e.name for e in a] == [e.name for e in b]
    assert a[0].algebra == b[0].algebra
