import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homlie import (LinearMap, PrimeField, build_matrix, determinant, make_algebra, random_algebra,
                    random_invertible_map, random_linear_map, rng)
from homlie.cli import main
from homlie.field import QQ
from homlie import files

import cli_golden
from oracles import mat_vec
from samples import lie_algebras, moved_lie_algebras


def run(capsys, *argv):
    status = main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def write_map(tmp_path, f, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(files.map_to_obj(f)), encoding="utf-8")
    return str(path)


def fixture(fixtures_dir, name):
    return str(fixtures_dir / f"{name}.json")


def test_check_nonhomlie4(capsys, fixtures_dir):
    status, out, _ = run(capsys, "check", fixture(fixtures_dir, "nonhomlie4"))
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "dim": 4, "is_lie": False, "nullity": 0, "is_hom_lie": False, "witness": None,
    }


def test_check_abelian3(capsys, fixtures_dir):
    status, out, _ = run(capsys, "check", fixture(fixtures_dir, "abelian3"))
    payload = json.loads(out)
    assert status == 0
    assert payload["is_hom_lie"] is True and payload["nullity"] == 9
    assert payload["witness"] is not None


def test_check_cross_product3(capsys, fixtures_dir):
    status, out, _ = run(capsys, "check", fixture(fixtures_dir, "cross_product3"))
    payload = json.loads(out)
    assert status == 0
    assert payload["is_lie"] is True and payload["nullity"] == 6


def test_check_is_lie_matches_jacobiator(capsys, tmp_path):
    # check reads is_lie off M (Id in the kernel); SkewAlgebra.is_lie
    # evaluates the Jacobiator from the structure constants
    seen = set()
    for field in (QQ, PrimeField(10007)):
        algebras = [random_algebra(n, field, rng.split(69, n), bound=5) for n in range(3, 7)]
        algebras += moved_lie_algebras(field) + list(lie_algebras(field).values())
        # [e1, e2] of a Lie algebra changed: usually no longer Lie
        algebras += [make_algebra(A.dim, field, [(i, j, [v[0] + 1, *v[1:]] if (i, j) == (1, 2) else v)
                                                 for (i, j), v in A.constants.items()])
                     for A in lie_algebras(field).values()]
        for t, A in enumerate(algebras):
            path = tmp_path / f"algebra{t}.json"
            path.write_text(json.dumps(files.algebra_to_obj(A)), encoding="utf-8")
            status, out, _ = run(capsys, "check", str(path))
            assert status == 0 and json.loads(out)["is_lie"] is A.is_lie(), (field, t)
            seen.add(A.is_lie())
    assert seen == {True, False}


def test_check_output_is_canonical_json(capsys, fixtures_dir):
    status, out, _ = run(capsys, "check", fixture(fixtures_dir, "heisenberg3"))
    assert status == 0
    assert out == files.dumps_canonical(json.loads(out)) + "\n"


def test_matrix_plain_matches_golden_file(capsys, fixtures_dir):
    status, out, _ = run(capsys, "matrix", fixture(fixtures_dir, "nonhomlie4"),
                         "--format", "plain")
    assert status == 0
    golden = (fixtures_dir / "nonhomlie4_matrix.txt").read_text()
    assert out == golden


def test_matrix_csv_and_json_reparse_identically(capsys, fixtures_dir, named):
    M = build_matrix(named["nonhomlie4"].algebra)
    status, out_csv, _ = run(capsys, "matrix", fixture(fixtures_dir, "nonhomlie4"),
                             "--format", "csv")
    assert status == 0
    assert files.matrix_entries_from_csv(out_csv, QQ) == M.rows
    status, out_json, _ = run(capsys, "matrix", fixture(fixtures_dir, "nonhomlie4"),
                              "--format", "json")
    assert status == 0
    assert files.matrix_entries_from_obj(json.loads(out_json), QQ) == M.rows


def test_matrix_of_heisenberg_is_zero_dump(capsys, fixtures_dir):
    status, out, _ = run(capsys, "matrix", fixture(fixtures_dir, "heisenberg3"))
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.split() == ["0"] * 9 for line in lines)


def test_det_of_nonhomlie4(capsys, fixtures_dir):
    status, out, _ = run(capsys, "det", fixture(fixtures_dir, "nonhomlie4"))
    assert status == 0
    assert json.loads(out) == {"det": "7574844564"}


def test_det_of_dim3_directs_to_rank(capsys, fixtures_dir):
    path = fixture(fixtures_dir, "cross_product3")
    status, out, err = run(capsys, "det", path)
    assert status == 1
    assert out == ""
    assert "rank" in err and path in err


def test_kernel_of_heisenberg(capsys, fixtures_dir, named):
    status, out, _ = run(capsys, "kernel", fixture(fixtures_dir, "heisenberg3"))
    assert status == 0
    maps = [files.map_from_obj(obj) for obj in json.loads(out)]
    assert len(maps) == 9
    A = named["heisenberg3"].algebra
    M = build_matrix(A)
    for f in maps:
        assert all(x == 0 for x in mat_vec(M.rows, f.flatten()))


def test_verify_identity_on_lie_algebra(capsys, fixtures_dir, tmp_path):
    mpath = write_map(tmp_path, LinearMap.identity(3, QQ))
    status, out, _ = run(capsys, "verify", fixture(fixtures_dir, "cross_product3"), mpath)
    assert status == 0
    payload = json.loads(out)
    assert payload["in_kernel"] is True
    assert len(payload["defects"]) == 1
    assert payload["defects"][0]["triple"] == [1, 2, 3]
    assert payload["defects"][0]["vector"] == ["0", "0", "0"]


def test_verify_rejects_shape_mismatch(capsys, fixtures_dir, tmp_path):
    mpath = write_map(tmp_path, LinearMap.identity(4, QQ))
    status, _, err = run(capsys, "verify", fixture(fixtures_dir, "cross_product3"), mpath)
    assert status == 1
    assert "mismatch" in err and mpath in err


@pytest.mark.parametrize("algebra, map_obj, needle", [
    ('{"dim": true, "field": {"kind": "rational"}, "products": []}', None, "True"),
    ('{"dim": 3, "field": {"kind": "rational"}, '
     '"products": [{"left": true, "right": 2, "coeffs": ["0", "0", "1"]}]}', None, "True"),
    ('{"dim": 1, "field": {"kind": "rational"}, "products": []}',
     '{"dim": true, "field": {"kind": "rational"}, "columns": [["1"]]}', "True"),
    # a negative map dimension is refused by name, like a boolean one
    ('{"dim": 1, "field": {"kind": "rational"}, "products": []}',
     '{"dim": -1, "field": {"kind": "rational"}, "columns": []}', "non-negative integer, got -1"),
], ids=["algebra-dim", "product-left", "map-dim", "map-negative-dim"])
def test_json_booleans_are_not_integers(capsys, tmp_path, algebra, map_obj, needle):
    apath = tmp_path / "bool_algebra.json"
    apath.write_text(algebra, encoding="utf-8")
    if map_obj is None:
        argv, culprit = ("check", str(apath)), apath
    else:
        culprit = tmp_path / "bool_map.json"
        culprit.write_text(map_obj, encoding="utf-8")
        argv = ("verify", str(apath), str(culprit))
    status, out, err = run(capsys, *argv)
    assert status == 1 and out == ""
    assert str(culprit) in err and needle in err


def test_cli_output_matches_golden_file(tmp_path):
    golden = json.loads(cli_golden.GOLDEN.read_text(encoding="utf-8"))
    calls = cli_golden.invocations(tmp_path)
    assert sorted(key for key, _ in calls) == sorted(golden)
    for key, argv in calls:
        assert cli_golden.run(argv) == golden[key], key


def test_restrict_bidiag_rank7(capsys, fixtures_dir):
    status, out, _ = run(capsys, "restrict", fixture(fixtures_dir, "nonhomlie4"),
                         "--support", "bidiag")
    assert status == 0
    payload = json.loads(out)
    assert (payload["rows"], payload["cols"]) == (16, 7)
    assert payload["rank"] == 7 and payload["nullity"] == 0 and payload["kernel"] == []
    assert payload["support"] == [[1, 1], [1, 2], [2, 2], [2, 3], [3, 3], [3, 4], [4, 4]]


def test_restrict_explicit_support(capsys, fixtures_dir):
    status, out, _ = run(capsys, "restrict", fixture(fixtures_dir, "cross_product3"),
                         "--support", "1,1;2,2;3,3")
    assert status == 0
    payload = json.loads(out)
    assert (payload["rows"], payload["cols"]) == (3, 3)
    assert payload["rank"] == 0 and payload["nullity"] == 3


def test_restrict_rejects_bad_support(capsys, fixtures_dir):
    status, _, err = run(capsys, "restrict", fixture(fixtures_dir, "cross_product3"),
                         "--support", "1;2")
    assert status == 1 and "support" in err
    status, _, err = run(capsys, "restrict", fixture(fixtures_dir, "cross_product3"),
                         "--support", "0,9")
    assert status == 1
    # indices are ASCII digits: int() alone would read both of these as 1
    for pattern in ("\u0661,1;2,2", "0_1,1"):
        status, out, err = run(capsys, "restrict", fixture(fixtures_dir, "cross_product3"),
                               "--support", pattern)
        assert status == 1 and out == "" and "expected integers" in err


def test_sample_is_reproducible(capsys):
    args = ("sample", "--dim", "3", "--trials", "10", "--prime", "10007", "--seed", "3")
    status1, out1, _ = run(capsys, *args)
    status2, out2, _ = run(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dim"] == 3 and payload["trials"] == 10 and payload["p"] == 10007
    assert sum(payload["histogram"].values()) == 10


def test_sample_has_no_dead_option(capsys):
    base = {"--dim": "4", "--trials": "20", "--prime": "3", "--seed": "3"}

    def sample(options, *extra):
        return run(capsys, "sample", *(x for kv in options.items() for x in kv), *extra)

    # every value option reaches the draws, not only the echoed fields
    reference = json.loads(sample(base)[1])["histogram"]
    for option, value in (("--dim", "5"), ("--trials", "19"), ("--prime", "2"), ("--seed", "4")):
        status, out, _ = sample({**base, option: value})
        assert status == 0 and json.loads(out)["histogram"] != reference, option
    # uniform residues mod p take no bound, so none is accepted
    status, out, err = sample(base, "--bound", "3")
    assert status == 1 and out == "" and "--bound" in err


def test_sample_rejects_composite_prime(capsys):
    status, _, err = run(capsys, "sample", "--dim", "3", "--trials", "2",
                         "--prime", "10", "--seed", "0")
    assert status == 1 and "prime" in err


def test_sample_refuses_seeds_outside_64_bits(capsys):
    # the random streams read a seed modulo 2^64: -1 would repeat the draws
    # of 2^64 - 1, and 2^64 + 5 those of 5, under a different "seed" field
    args = ("sample", "--dim", "3", "--trials", "2", "--prime", "10007", "--seed")
    for seed in (-1, 2**64, 2**64 + 5):
        status, out, err = run(capsys, *args, str(seed))
        assert status == 1 and out == "" and f"seed {seed} " in err
    status, out, _ = run(capsys, *args, str(2**64 - 1))
    assert status == 0 and json.loads(out)["seed"] == 2**64 - 1


def test_oversized_inputs_fail_fast_with_exit_1(capsys, tmp_path):
    # dimension 40 would make a 395,200 x 1,600 Hom-Jacobi matrix
    apath = str(tmp_path / "abelian40.json")
    with open(apath, "w", encoding="utf-8") as fh:
        json.dump({"dim": 40, "field": {"kind": "rational"}, "products": []}, fh)
    mpath = write_map(tmp_path, LinearMap.identity(40, QQ), "id40.json")
    calls = [("check", apath), ("kernel", apath), ("det", apath), ("matrix", apath),
             ("restrict", apath), ("verify", apath, mpath)]
    for argv in calls:
        start = time.perf_counter()
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == "", argv
        assert apath in err and "dimension 40" in err, argv
        assert time.perf_counter() - start < 5, argv
    # at dimension 1000 even the random structure constants would not fit
    for dim in ("40", "1000"):
        start = time.perf_counter()
        status, out, err = run(capsys, "sample", "--dim", dim, "--trials", "1", "--seed", "0")
        assert status == 1 and out == "" and f"dimension {dim}" in err
        assert time.perf_counter() - start < 5
    # transporting a 127-dimensional algebra would compute 1,016,127 constants
    apath = str(tmp_path / "abelian127.json")
    with open(apath, "w", encoding="utf-8") as fh:
        json.dump({"dim": 127, "field": {"kind": "rational"}, "products": []}, fh)
    mpath = write_map(tmp_path, LinearMap.identity(127, QQ), "id127.json")
    start = time.perf_counter()
    status, out, err = run(capsys, "transport", apath, mpath)
    assert status == 1 and out == ""
    assert mpath in err and "dimension 127" in err
    assert time.perf_counter() - start < 5


def test_transport_round_trip_preserves_nullity(capsys, fixtures_dir, tmp_path):
    g = random_invertible_map(3, QQ, seed=77, bound=4)
    mpath = write_map(tmp_path, g)
    moved_path = tmp_path / "moved.json"
    status, out, _ = run(capsys, "transport", fixture(fixtures_dir, "cross_product3"), mpath,
                         "--output", str(moved_path))
    assert status == 0 and out == ""
    # re-load the transported algebra with check: nullity must be unchanged
    status, out, _ = run(capsys, "check", str(moved_path))
    assert status == 0
    assert json.loads(out)["nullity"] == 6


def test_transport_rejects_singular_map(capsys, fixtures_dir, tmp_path):
    mpath = write_map(tmp_path, LinearMap.zero(3, QQ))
    status, _, err = run(capsys, "transport", fixture(fixtures_dir, "cross_product3"), mpath)
    assert status == 1 and "singular" in err and mpath in err


@pytest.mark.parametrize("f, needle", [
    (LinearMap.identity(4, QQ), "dimension mismatch"),
    (LinearMap.identity(3, PrimeField(7)), "field mismatch"),
], ids=["dimension", "field"])
def test_transport_names_the_mismatched_map(capsys, fixtures_dir, tmp_path, f, needle):
    mpath = write_map(tmp_path, f)
    status, out, err = run(capsys, "transport", fixture(fixtures_dir, "cross_product3"), mpath)
    assert status == 1 and out == ""
    assert needle in err and mpath in err


def test_output_flag_writes_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "out.json"
    status, out, _ = run(capsys, "check", fixture(fixtures_dir, "abelian3"),
                         "--output", str(target))
    assert status == 0 and out == ""
    assert json.loads(target.read_text())["nullity"] == 9


def test_reused_parser_keeps_no_state_between_calls(capsys, fixtures_dir, tmp_path):
    from homlie.cli import build_parser

    assert build_parser() is build_parser()
    abelian, nonhomlie = fixture(fixtures_dir, "abelian3"), fixture(fixtures_dir, "nonhomlie4")
    target = tmp_path / "out.json"
    status, out, _ = run(capsys, "check", abelian, "--output", str(target))
    assert status == 0 and out == "" and json.loads(target.read_text())["nullity"] == 9
    target.unlink()
    status, out, _ = run(capsys, "check", abelian)
    assert status == 0 and json.loads(out)["nullity"] == 9 and not target.exists()

    status, out, _ = run(capsys, "matrix", nonhomlie, "--format", "csv")
    assert status == 0 and "," in out
    status, out, _ = run(capsys, "matrix", nonhomlie)
    assert status == 0 and out == (fixtures_dir / "nonhomlie4_matrix.txt").read_text()

    status, out, err = run(capsys, "sample", "--dim", "3")
    assert status == 1 and out == "" and "--trials" in err
    status, out, err = run(capsys, "det", nonhomlie)
    assert status == 0 and err == "" and json.loads(out) == {"det": "7574844564"}


def test_missing_file_is_input_error(capsys):
    status, out, err = run(capsys, "check", "/no/such/file.json")
    assert status == 1 and out == "" and err


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    status, out, err = run(capsys, "check", str(bad))
    assert status == 1 and out == ""
    assert "bad.json:1:" in err


@pytest.mark.parametrize("payload", [
    "{}",
    '{"dim": 3}',
    '{"dim": 3, "field": {"kind": "real"}, "products": []}',
    '{"dim": 3, "field": {"kind": "rational"}, "products": [{"left": 2, "right": 1, "coeffs": ["0","0","1"]}]}',
    '{"dim": 3, "field": {"kind": "rational"}, "products": [{"left": 1, "right": 2, "coeffs": ["0","x","1"]}]}',
    '{"dim": 3, "field": {"kind": "rational"}, "products": [{"left": 1, "right": 2, "coeffs": ["0","1"]}]}',
    '{"dim": 3, "field": {"kind": "prime", "p": 10}, "products": []}',
    '{"dim": 3, "field": {"kind": "rational"}, "products": [{"left": 1, "right": 2}]}',
    '[1, 2, 3]',
    '{"dim": -1, "field": {"kind": "rational"}, "products": []}',
    # ARABIC-INDIC DIGIT THREE: a digit, but the literal grammar is ASCII
    '{"dim": 3, "field": {"kind": "rational"}, "products": [{"left": 1, "right": 2, "coeffs": ["\u0663","0","1"]}]}',
    '{"dim": 3, "field": {"kind": "prime", "p": 7}, "products": [{"left": 1, "right": 2, "coeffs": ["\u0663","0","1"]}]}',
    # nested past the parser's recursion limit
    pytest.param("[" * 200_000 + "]" * 200_000, id="deeply-nested-array"),
    # Latin-1, not UTF-8
    pytest.param('{"dim": 3, "field": {"kind": "rational"}, "products": [], "note": "\xe9"}'
                 .encode("latin-1"), id="not-utf-8"),
    # above the 4,300-digit limit of int() on a decimal string
    pytest.param('{"dim": 1' + "0" * 5000 + "}", id="integer-over-digit-limit"),
])
def test_fuzz_corpus_of_malformed_files(capsys, tmp_path, fixtures_dir, payload):
    bad = tmp_path / "fuzz.json"
    if isinstance(payload, bytes):
        bad.write_bytes(payload)
    else:
        bad.write_text(payload, encoding="utf-8")
    # none of the payloads is a map file either
    algebra = fixture(fixtures_dir, "cross_product3")
    for argv in (("check", bad), ("matrix", bad), ("det", bad), ("kernel", bad),
                 ("verify", algebra, bad), ("transport", algebra, bad)):
        status, out, err = run(capsys, *map(str, argv))
        assert status == 1, (argv, payload)
        assert out == "" and str(bad) in err


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
_literal = st.sampled_from(["-3/4", "2/0", " 7 ", "\u0663", "1_0", "0.5"]) | st.text(
    "0123456789+-/ x", max_size=6)


def _nodes(obj, path=()):
    """The path of every value in a JSON object, the object itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def _near(obj):
    """obj, or obj with one value replaced by a random literal or JSON value."""
    return st.just(obj) | st.tuples(st.sampled_from(list(_nodes(obj))), _literal | _json).map(
        lambda change: _replaced(obj, *change))


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 5), prime=st.booleans(), seed=st.integers(0, 99))
def test_no_input_file_exits_2(tmp_path_factory, data, n, prime, seed):
    # any JSON value, and a valid algebra file and map file with at most one
    # value replaced, is an input error (1) or an answer (0) for every command
    fld = PrimeField(7) if prime else QQ
    valid = [files.algebra_to_obj(random_algebra(n, fld, seed, bound=2)),
             files.map_to_obj(random_linear_map(n, fld, seed, bound=2))]
    tmp = tmp_path_factory.mktemp("prop")
    path, algebra = tmp / "input.json", tmp / "algebra.json"
    algebra.write_text(json.dumps(valid[0]), encoding="utf-8")
    for obj in [data.draw(_json), *(data.draw(_near(x)) for x in valid)]:
        path.write_text(json.dumps(obj), encoding="utf-8")
        for argv in (("check", path), ("kernel", path), ("det", path),
                     ("verify", algebra, path), ("transport", algebra, path)):
            assert main([str(x) for x in argv]) in (0, 1), (argv, obj)


def test_usage_errors_exit_1(capsys):
    status, _, err = run(capsys, "no-such-command")
    assert status == 1 and err
    status, _, err = run(capsys, "sample", "--dim", "3")
    assert status == 1 and err


def test_prime_field_files_end_to_end(capsys, tmp_path):
    fp = PrimeField(10007)
    A = random_algebra(4, fp, seed=88)
    apath = tmp_path / "prime4.json"
    apath.write_text(json.dumps(files.algebra_to_obj(A)), encoding="utf-8")

    status, out, _ = run(capsys, "check", str(apath))
    assert status == 0
    payload = json.loads(out)
    assert payload["dim"] == 4 and isinstance(payload["is_hom_lie"], bool)

    status, out, _ = run(capsys, "det", str(apath))
    assert status == 0
    assert json.loads(out)["det"] == str(determinant(build_matrix(A)))

    status, out, _ = run(capsys, "matrix", str(apath), "--format", "csv")
    assert status == 0
    assert files.matrix_entries_from_csv(out, fp) == build_matrix(A).rows

    mpath = write_map(tmp_path, LinearMap.identity(4, fp), "id4p.json")
    status, out, _ = run(capsys, "verify", str(apath), mpath)
    assert status == 0
    assert json.loads(out)["in_kernel"] is A.is_lie()


def test_verify_rejects_field_mismatch(capsys, fixtures_dir, tmp_path):
    mpath = write_map(tmp_path, LinearMap.identity(3, PrimeField(7)), "id3p.json")
    status, _, err = run(capsys, "verify", fixture(fixtures_dir, "cross_product3"), mpath)
    assert status == 1 and "field mismatch" in err and mpath in err


def test_internal_errors_exit_2(capsys, fixtures_dir, monkeypatch):
    from homlie import cli

    def boom(A):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli.system, "build_matrix", boom)
    status, out, err = run(capsys, "check", fixture(fixtures_dir, "abelian3"))
    assert status == 2 and out == "" and "internal" in err


def test_module_entry_point(fixtures_dir):
    # the child imports this checkout's package however the suite was started
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "homlie", "check", fixture(fixtures_dir, "abelian3")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nullity"] == 9
