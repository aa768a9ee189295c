"""The CLI invocations whose exact stdout and exit status are pinned in
`fixtures/cli_golden.json`.

`check`, `kernel`, `det`, `matrix --format json` and `restrict` (bidiag,
diag, an unsorted mixed pattern, a pattern with a duplicate entry and the
full support) run on every algebra file in `fixtures/` and on every
catalog algebra written out over Q and over F_10007. On the same files
`verify` checks the identity, a seeded random map and a kernel witness
(the zero map when the kernel is trivial), and `transport` moves the
algebra along a seeded invertible map and along a singular one (exit 1).
`check` and the non-full `restrict` patterns also run on seeded moved Lie
algebras and random algebras at n = 5..6 over Q. `sample` runs at n = 3..5.
`tests/test_cli.py` replays them. To regenerate the fixture after an
intended output change, run from the root of a checkout:

    PYTHONPATH=src python tests/cli_golden.py
"""

import json
import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
PRIME = 10007

COMMANDS = (
    ("check",),
    ("kernel",),
    ("det",),
    ("matrix", "--format", "json"),
    ("restrict", "--support", "bidiag"),
    ("restrict", "--support", "diag"),
    ("restrict", "--support", "3,1;1,1;2,3;1,2"),
    ("restrict", "--support", "2,2;1,1;2,2;3,1"),
)

# (command, map) pairs run on every fixture and catalog file
MAP_COMMANDS = (
    ("verify", "identity"),
    ("verify", "random"),
    ("verify", "witness"),
    ("transport", "invertible"),
    ("transport", "singular"),
)

# check and the restricted systems on larger rational inputs; their
# kernel and full matrix dumps would only bloat the fixture
LARGE_COMMANDS = (("check",), *COMMANDS[4:])


def _write(workdir: pathlib.Path, name: str, A) -> str:
    from homlie import files

    path = workdir / f"{name}.json"
    path.write_text(json.dumps(files.algebra_to_obj(A)), encoding="utf-8")
    return str(path)


def algebra_files(workdir: pathlib.Path) -> list[tuple[str, str, int]]:
    """(label, path, dim) for the fixture files and the catalog over Q and F_p.

    The catalog files are written into workdir; labels do not depend on it.
    """
    from homlie import PrimeField, make_algebra, reduce_mod
    from homlie.lab import catalog

    out = [(f"fixtures/{p.name}", str(p), json.loads(p.read_text(encoding="utf-8"))["dim"])
           for p in sorted(FIXTURES.glob("*.json")) if p != GOLDEN]
    fp = PrimeField(PRIME)
    for entry in catalog():
        A = entry.algebra
        modp = make_algebra(A.dim, fp, [(i, j, [reduce_mod(x, PRIME) for x in vec])
                                        for (i, j), vec in A.constants.items()])
        for tag, B in (("QQ", A), (f"F{PRIME}", modp)):
            name = f"{entry.name}-{tag}"
            out.append((f"catalog/{name}", _write(workdir, name, B), A.dim))
    return out


def map_files(workdir: pathlib.Path, label: str, path: str, seed: int) -> dict:
    """{name: path} of the maps `verify` and `transport` read for one
    algebra file, written into workdir and seeded by `seed`."""
    from homlie import (LinearMap, build_matrix, files, kernel_basis, random_invertible_map,
                        random_linear_map, rng)

    A = files.load_algebra(path)
    n, fld = A.dim, A.field
    basis = kernel_basis(build_matrix(A))
    random = random_linear_map(n, fld, rng.split(seed, 0), bound=5)
    maps = {
        "identity": LinearMap.identity(n, fld),
        "random": random,
        "witness": basis.maps[0] if basis.nullity else LinearMap.zero(n, fld),
        "invertible": random_invertible_map(n, fld, rng.split(seed, 1), bound=4),
        # the last column repeats the first
        "singular": LinearMap(n, fld, [*random.columns[:-1], random.columns[0]]),
    }
    out = {}
    for name, f in maps.items():
        mpath = workdir / f"{label.replace('/', '-')}-{name}.map.json"
        mpath.write_text(json.dumps(files.map_to_obj(f)), encoding="utf-8")
        out[name] = str(mpath)
    return out


def large_algebra_files(workdir: pathlib.Path) -> list[tuple[str, str]]:
    """(label, path) for seeded moved Lie and random algebras at n = 5..6 over Q."""
    from homlie import QQ, random_algebra, rng
    from samples import lie_algebras, moved

    lie = lie_algebras(QQ)
    algebras = [(f"moved-{name}", moved(lie[name], rng.split(70, t), bound=2))
                for t, name in enumerate(("sl2+a2", "h5", "sl2+sl2"))]
    algebras += [(f"random{n}", random_algebra(n, QQ, rng.split(71, n), bound=5)) for n in (5, 6)]
    return [(f"seeded/{name}", _write(workdir, name, A)) for name, A in algebras]


def invocations(workdir: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(key, argv) for every pinned invocation, in a fixed order."""
    out = []
    for t, (label, path, dim) in enumerate(algebra_files(workdir)):
        full = ";".join(f"{p},{q}" for p in range(1, dim + 1) for q in range(1, dim + 1))
        for command in (*COMMANDS, ("restrict", "--support", full)):
            argv = [command[0], path, *command[1:]]
            out.append((" ".join([command[0], label, *command[1:]]), argv))
        maps = map_files(workdir, label, path, seed=72 + t)
        for command, name in MAP_COMMANDS:
            out.append((f"{command} {label} {name}", [command, path, maps[name]]))
    for label, path in large_algebra_files(workdir):
        for command in LARGE_COMMANDS:
            argv = [command[0], path, *command[1:]]
            out.append((" ".join([command[0], label, *command[1:]]), argv))
    for dim in (3, 4, 5):
        argv = ["sample", "--dim", str(dim), "--trials", "30", "--prime", str(PRIME), "--seed", "5"]
        out.append((" ".join(argv), argv))
    return out


def run(argv: list[str]) -> dict:
    """Exit status and exact stdout of one in-process CLI call."""
    import contextlib
    import io

    from homlie.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    return {"status": status, "stdout": stdout.getvalue()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {key: run(argv) for key, argv in invocations(pathlib.Path(tmp))}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} invocations to {GOLDEN}")
