"""Command-line front end.

Every subcommand is a thin adapter over the library: it loads files,
calls one operation and serializes the result as canonical JSON (sorted
keys, compact separators) or, for matrix dumps, as plain/CSV text.

Exit status: 0 success, 1 input or usage error, 2 internal error.
All randomness is seeded explicitly; no ambient entropy is ever used.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import files, system
from .algebra import LinearMap
from .errors import ShapeError
from .field import PrimeField
from .lab import DEFAULT_PRIME, genericity_experiment


class CliError(Exception):
    """Input or usage problem; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the outcome contract
    # reserves 2 for internal errors, so reroute through CliError
    def error(self, message):
        raise CliError(message)


def _load(loader, path):
    """loader(path), with a file or format error as a CliError."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _load_system(path):
    """The algebra in `path` and its Hom-Jacobi matrix."""
    A = _load(files.load_algebra, path)
    try:
        return A, system.build_matrix(A)
    except ShapeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_check(args) -> str:
    A, M = _load_system(args.algebra)
    basis = system.kernel_basis(M)
    witness = basis.maps[0] if basis.nullity else None
    # Lie iff Id is a twisting map, so never with nullity 0
    is_lie = basis.nullity > 0 and system.is_in_kernel(A, LinearMap.identity(A.dim, A.field), matrix=M)
    payload = {
        "dim": A.dim,
        "is_lie": is_lie,
        "nullity": basis.nullity,
        "is_hom_lie": basis.nullity >= 1,
        "witness": files.map_to_obj(witness) if witness else None,
    }
    return files.dumps_canonical(payload)


def cmd_matrix(args) -> str:
    A, M = _load_system(args.algebra)
    if args.format == "plain":
        return files.matrix_to_plain(M).rstrip("\n")
    if args.format == "csv":
        return files.matrix_to_csv(M).rstrip("\n")
    return files.dumps_canonical(files.matrix_to_obj(M))


def cmd_det(args) -> str:
    A, M = _load_system(args.algebra)
    try:
        value = system.determinant(M)
    except ShapeError as exc:
        raise CliError(f"{args.algebra}: {exc}") from exc
    return files.dumps_canonical({"det": A.field.format(value)})


def cmd_kernel(args) -> str:
    _, M = _load_system(args.algebra)
    basis = system.kernel_basis(M)
    return files.dumps_canonical(files.kernel_to_obj(basis.maps))


def cmd_verify(args) -> str:
    A, M = _load_system(args.algebra)
    f = _load(files.load_map, args.map)
    try:
        defects = system.hom_jacobi_defect(A, f)
        in_kernel = system.is_in_kernel(A, f, matrix=M)
    except ValueError as exc:
        raise CliError(f"{args.map}: {exc}") from exc
    payload = {
        "in_kernel": in_kernel,
        "defects": [
            {"triple": list(t), "vector": [A.field.format(x) for x in vec]}
            for t, vec in defects
        ],
    }
    return files.dumps_canonical(payload)


def _parse_support(pattern: str, dim: int):
    if pattern == "diag":
        return system.diagonal_support(dim)
    if pattern == "bidiag":
        return system.bidiagonal_support(dim)
    out = []
    for chunk in pattern.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 2:
            raise CliError(f"bad support entry {chunk!r}; expected \"p,q\"")
        # ASCII digits only: int() would also read "0_1" and non-ASCII digits
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise CliError(f"bad support entry {chunk!r}; expected integers")
        out.append((int(parts[0]), int(parts[1])))
    if not out:
        raise CliError("support pattern is empty")
    return tuple(out)


def cmd_restrict(args) -> str:
    A, M = _load_system(args.algebra)
    support = _parse_support(args.support, A.dim)
    try:
        R = system.restrict_columns(M, support)
    except ShapeError as exc:
        raise CliError(str(exc)) from exc
    basis = system.kernel_basis(R)
    payload = {
        "rows": R.nrows,
        "cols": R.ncols,
        "support": [list(pq) for pq in R.support],
        "entries": [[A.field.format(x) for x in row] for row in R.rows],
        "rank": R.ncols - basis.nullity,
        "nullity": basis.nullity,
        "kernel": [[A.field.format(f.entry(p, q)) for p, q in R.support] for f in basis.maps],
    }
    return files.dumps_canonical(payload)


def cmd_sample(args) -> str:
    try:
        fld = PrimeField(args.prime)
        report = genericity_experiment(args.dim, args.trials, fld, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return files.dumps_canonical(report.to_obj())


def cmd_transport(args) -> str:
    A = _load(files.load_algebra, args.algebra)
    g = _load(files.load_map, args.map)
    try:
        moved = A.transport(g)
    except ValueError as exc:
        raise CliError(f"{args.map}: {exc}") from exc
    return files.dumps_canonical(files.algebra_to_obj(moved))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `homlie` parser, built once per process: parsing leaves it
    unchanged, so every `main` call reuses it."""
    parser = _Parser(prog="homlie",
                     description="Decide Hom-Lie structure existence for "
                                 "skew-symmetric algebras, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--output", metavar="PATH", help="write the payload to a file instead of stdout")
        return p

    p = add("check", cmd_check, "Lie/Hom-Lie status, nullity and witness of an algebra file")
    p.add_argument("algebra")

    p = add("matrix", cmd_matrix, "dump the Hom-Jacobi matrix")
    p.add_argument("algebra")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = add("det", cmd_det, "determinant of the (square, dimension-4) matrix")
    p.add_argument("algebra")

    p = add("kernel", cmd_kernel, "canonical basis of twisting maps")
    p.add_argument("algebra")

    p = add("verify", cmd_verify, "check one map against the cyclic identity")
    p.add_argument("algebra")
    p.add_argument("map")

    p = add("restrict", cmd_restrict, "restricted-support system, its rank and kernel")
    p.add_argument("algebra")
    p.add_argument("--support", default="bidiag",
                   help="\"diag\", \"bidiag\" or an explicit list \"p,q;p,q;...\"")

    p = add("sample", cmd_sample, "nullity histogram over seeded random algebras")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, required=True)

    p = add("transport", cmd_transport, "transport an algebra along an invertible map")
    p.add_argument("algebra")
    p.add_argument("map")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - outcome contract: 2 = internal
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
