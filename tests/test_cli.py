import json
import subprocess
import sys

import pytest

from homlie import LinearMap, PrimeField, build_matrix, determinant, random_algebra, random_invertible_map
from homlie.cli import main
from homlie.field import QQ
from homlie import files


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
    status, out, err = run(capsys, "det", fixture(fixtures_dir, "cross_product3"))
    assert status == 1
    assert out == ""
    assert "rank" in err


def test_kernel_of_heisenberg(capsys, fixtures_dir, named):
    status, out, _ = run(capsys, "kernel", fixture(fixtures_dir, "heisenberg3"))
    assert status == 0
    maps = [files.map_from_obj(obj) for obj in json.loads(out)]
    assert len(maps) == 9
    A = named["heisenberg3"].algebra
    M = build_matrix(A)
    for f in maps:
        assert all(x == 0 for x in M.apply(f.flatten()))


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
    assert "mismatch" in err


@pytest.mark.parametrize("algebra, map_obj, needle", [
    ('{"dim": true, "field": {"kind": "rational"}, "products": []}', None, "True"),
    ('{"dim": 3, "field": {"kind": "rational"}, '
     '"products": [{"left": true, "right": 2, "coeffs": ["0", "0", "1"]}]}', None, "True"),
    ('{"dim": 1, "field": {"kind": "rational"}, "products": []}',
     '{"dim": true, "field": {"kind": "rational"}, "columns": [["1"]]}', "True"),
], ids=["algebra-dim", "product-left", "map-dim"])
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


def test_sample_is_reproducible(capsys):
    args = ("sample", "--dim", "3", "--trials", "10", "--prime", "10007", "--seed", "3")
    status1, out1, _ = run(capsys, *args)
    status2, out2, _ = run(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dim"] == 3 and payload["trials"] == 10 and payload["p"] == 10007
    assert sum(payload["histogram"].values()) == 10


def test_sample_rejects_composite_prime(capsys):
    status, _, err = run(capsys, "sample", "--dim", "3", "--trials", "2",
                         "--prime", "10", "--seed", "0")
    assert status == 1 and "prime" in err


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
    assert status == 1 and "singular" in err


def test_output_flag_writes_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "out.json"
    status, out, _ = run(capsys, "check", fixture(fixtures_dir, "abelian3"),
                         "--output", str(target))
    assert status == 0 and out == ""
    assert json.loads(target.read_text())["nullity"] == 9


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
])
def test_fuzz_corpus_of_malformed_files(capsys, tmp_path, payload):
    bad = tmp_path / "fuzz.json"
    bad.write_text(payload, encoding="utf-8")
    for command in (("check",), ("matrix",), ("det",), ("kernel",)):
        status, out, err = run(capsys, *command, str(bad))
        assert status == 1, (command, payload)
        assert out == "" and err


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
    assert status == 1 and "mismatch" in err


def test_internal_errors_exit_2(capsys, fixtures_dir, monkeypatch):
    from homlie import cli

    def boom(A):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli.system, "build_matrix", boom)
    status, out, err = run(capsys, "check", fixture(fixtures_dir, "abelian3"))
    assert status == 2 and out == "" and "internal" in err


def test_module_entry_point(fixtures_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "homlie", "check", fixture(fixtures_dir, "abelian3")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nullity"] == 9
