import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlie import LinearMap, PrimeField, build_matrix, make_algebra, random_algebra, random_linear_map
from homlie.field import QQ
from homlie import files

# Q, the smallest primes, a mid-size one and a 61-bit one
FIELDS = [QQ] + [PrimeField(p) for p in (2, 3, 10007, 2**61 - 1)]
FIELD_IDS = ["QQ", "F2", "F3", "F10007", "F2^61-1"]
BIG = 2**130


def _scalars(fld):
    """Residues over F_p; signed fractions with numerators and
    denominators up to 2^130 over Q."""
    if fld.p:
        return st.integers(0, fld.p - 1)
    return st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


@st.composite
def _algebras(draw, fld, min_dim=1):
    n = draw(st.integers(min_dim, 5))
    vectors = st.lists(_scalars(fld), min_size=n, max_size=n)
    products = [(i, j, draw(vectors)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if draw(st.booleans())]
    return make_algebra(n, fld, products)


@st.composite
def _maps(draw, fld):
    n = draw(st.integers(1, 5))
    column = st.lists(_scalars(fld), min_size=n, max_size=n)
    return LinearMap(n, fld, [draw(column) for _ in range(n)])


def test_algebra_json_round_trip(named, fp):
    for entry in named.values():
        obj = files.algebra_to_obj(entry.algebra)
        assert files.algebra_from_obj(obj) == entry.algebra
        assert files.algebra_to_obj(files.algebra_from_obj(obj)) == obj
    A = random_algebra(4, fp, seed=70)
    assert files.algebra_from_obj(files.algebra_to_obj(A)) == A


def test_algebra_literals_are_strings(named):
    obj = files.algebra_to_obj(named["nonhomlie4"].algebra)
    for product in obj["products"]:
        assert all(isinstance(c, str) for c in product["coeffs"])


def test_prime_literals_reduced_on_load():
    obj = {
        "dim": 3,
        "field": {"kind": "prime", "p": 7},
        "products": [{"left": 1, "right": 2, "coeffs": ["12", "-5", "0"]}],
    }
    A = files.algebra_from_obj(obj)
    assert A.constants[(1, 2)] == (5, 2, 0)


def test_map_json_round_trip(fp, qq):
    for field in (fp, qq):
        f = random_linear_map(4, field, seed=71)
        obj = files.map_to_obj(f)
        assert files.map_from_obj(obj) == f
        assert files.map_to_obj(files.map_from_obj(obj)) == obj


def test_map_columns_convention(qq):
    f = LinearMap.from_entries(2, qq, {(1, 2): qq.element(5)})
    obj = files.map_to_obj(f)
    # columns[q] holds the coordinates of f(e_{q+1})
    assert obj["columns"] == [["0", "0"], ["5", "0"]]


def test_matrix_round_trips(named):
    M = build_matrix(named["nonhomlie4"].algebra)
    obj = files.matrix_to_obj(M)
    assert files.matrix_entries_from_obj(obj, QQ) == M.rows
    plain = files.matrix_to_plain(M)
    assert files.matrix_entries_from_plain(plain, QQ) == M.rows
    text = files.matrix_to_csv(M)
    assert files.matrix_entries_from_csv(text, QQ) == M.rows


def test_matrix_round_trips_prime_field(fp):
    M = build_matrix(random_algebra(4, fp, seed=72))
    assert files.matrix_entries_from_plain(files.matrix_to_plain(M), fp) == M.rows
    assert files.matrix_entries_from_csv(files.matrix_to_csv(M), fp) == M.rows
    assert files.matrix_entries_from_obj(files.matrix_to_obj(M), fp) == M.rows


def test_matrix_obj_shape_mismatch_rejected(named):
    M = build_matrix(named["heisenberg3"].algebra)
    obj = files.matrix_to_obj(M)
    obj["cols"] = 5
    with pytest.raises(ValueError):
        files.matrix_entries_from_obj(obj, QQ)


def test_missing_keys_are_reported():
    with pytest.raises(ValueError, match="missing key"):
        files.algebra_from_obj({"dim": 3})
    with pytest.raises(ValueError, match="products\\[0\\]"):
        files.algebra_from_obj({"dim": 3, "field": {"kind": "rational"}, "products": [{}]})
    with pytest.raises(ValueError, match="missing key"):
        files.map_from_obj({"dim": 2})


def test_bad_literal_position_is_annotated():
    obj = {
        "dim": 3,
        "field": {"kind": "rational"},
        "products": [
            {"left": 1, "right": 2, "coeffs": ["1", "0", "0"]},
            {"left": 1, "right": 3, "coeffs": ["1", "oops", "0"]},
        ],
    }
    with pytest.raises(ValueError, match="products\\[1\\]"):
        files.algebra_from_obj(obj)


def test_load_json_annotates_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,\n  "field": }\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.json:2:\d+"):
        files.load_json(str(bad))


def test_load_algebra_and_map_from_files(tmp_path, named):
    A = named["cross_product3"].algebra
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(files.algebra_to_obj(A)), encoding="utf-8")
    assert files.load_algebra(str(path)) == A

    f = LinearMap.identity(3, QQ)
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps(files.map_to_obj(f)), encoding="utf-8")
    assert files.load_map(str(mpath)) == f


def test_committed_fixtures_parse(fixtures_dir, named):
    for name in ("nonhomlie4", "cross_product3", "heisenberg3", "abelian3"):
        A = files.load_algebra(str(fixtures_dir / f"{name}.json"))
        assert A == named[name].algebra


def test_dumps_canonical_is_stable():
    assert files.dumps_canonical({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# Bit-exact round-trips: the loaded object equals the written one, and
# writing it again gives the same bytes.
@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30)
@given(data=st.data())
def test_algebra_json_round_trip_is_bit_exact(fld, data):
    A = data.draw(_algebras(fld))
    text = files.dumps_canonical(files.algebra_to_obj(A))
    B = files.algebra_from_obj(json.loads(text))
    assert B == A and files.dumps_canonical(files.algebra_to_obj(B)) == text


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30)
@given(data=st.data())
def test_map_json_round_trip_is_bit_exact(fld, data):
    f = data.draw(_maps(fld))
    text = files.dumps_canonical(files.map_to_obj(f))
    g = files.map_from_obj(json.loads(text))
    assert g == f and files.dumps_canonical(files.map_to_obj(g)) == text


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@settings(max_examples=15)
@given(data=st.data())
def test_matrix_round_trips_are_bit_exact(fld, data):
    M = build_matrix(data.draw(_algebras(fld, min_dim=3)))
    obj = json.loads(files.dumps_canonical(files.matrix_to_obj(M)))
    assert files.matrix_entries_from_obj(obj, fld) == M.rows
    assert files.matrix_entries_from_plain(files.matrix_to_plain(M), fld) == M.rows
    assert files.matrix_entries_from_csv(files.matrix_to_csv(M), fld) == M.rows
