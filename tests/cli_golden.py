"""The CLI invocations whose exact stdout and exit status are pinned in
`fixtures/cli_golden.json`.

`check`, `kernel`, `det`, `matrix --format json` and `restrict` (bidiag
and diag) run on every algebra file in `fixtures/` and on every catalog
algebra written out over Q and over F_10007; `sample` runs at n = 3..5.
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
)


def algebra_files(workdir: pathlib.Path) -> list[tuple[str, str]]:
    """(label, path) for the fixture files and the catalog over Q and F_p.

    The catalog files are written into workdir; labels do not depend on it.
    """
    from homlie import PrimeField, files, make_algebra, reduce_mod
    from homlie.lab import catalog

    out = [(f"fixtures/{p.name}", str(p)) for p in sorted(FIXTURES.glob("*.json"))
           if p != GOLDEN]
    fp = PrimeField(PRIME)
    for entry in catalog():
        A = entry.algebra
        modp = make_algebra(A.dim, fp, [(i, j, [reduce_mod(x, PRIME) for x in vec])
                                        for (i, j), vec in A.constants.items()])
        for tag, B in (("QQ", A), (f"F{PRIME}", modp)):
            path = workdir / f"{entry.name}-{tag}.json"
            path.write_text(json.dumps(files.algebra_to_obj(B)), encoding="utf-8")
            out.append((f"catalog/{entry.name}-{tag}", str(path)))
    return out


def invocations(workdir: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(key, argv) for every pinned invocation, in a fixed order."""
    out = []
    for label, path in algebra_files(workdir):
        for command in COMMANDS:
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
