"""JSON and text serialization of algebras, maps, matrices and kernels.

All scalar values travel as literal strings ("-3/4", "17"); prime-field
literals are integer strings reduced mod p on load. Every writer
round-trips bit-exactly through the matching loader.
"""

from __future__ import annotations

import csv
import io
import json

from .algebra import LinearMap, SkewAlgebra, make_algebra
from .field import Field, field_from_obj
from .system import HomJacobiMatrix


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no insignificant whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _need(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


def algebra_to_obj(A: SkewAlgebra) -> dict:
    return {
        "dim": A.dim,
        "field": A.field.to_obj(),
        "products": [
            {"left": i, "right": j, "coeffs": [A.field.format(x) for x in vec]}
            for (i, j), vec in sorted(A.constants.items())
        ],
    }


def algebra_from_obj(obj) -> SkewAlgebra:
    dim = _need(obj, "dim", "algebra")
    fld = field_from_obj(_need(obj, "field", "algebra"))
    products = []
    raw = _need(obj, "products", "algebra")
    if not isinstance(raw, list):
        raise ValueError("algebra: \"products\" must be a list")
    for idx, entry in enumerate(raw):
        where = f"products[{idx}]"
        i = _need(entry, "left", where)
        j = _need(entry, "right", where)
        coeffs = _need(entry, "coeffs", where)
        if not isinstance(coeffs, list):
            raise ValueError(f"{where}: \"coeffs\" must be a list of literals")
        try:
            vec = [fld.parse(c) for c in coeffs]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        products.append((i, j, vec))
    return make_algebra(dim, fld, products)


def map_to_obj(f: LinearMap) -> dict:
    return {
        "dim": f.dim,
        "field": f.field.to_obj(),
        "columns": [[f.field.format(x) for x in col] for col in f.columns],
    }


def map_from_obj(obj) -> LinearMap:
    dim = _need(obj, "dim", "map")
    fld = field_from_obj(_need(obj, "field", "map"))
    raw = _need(obj, "columns", "map")
    if not isinstance(raw, list):
        raise ValueError("map: \"columns\" must be a list")
    cols = []
    for q, col in enumerate(raw):
        if not isinstance(col, list):
            raise ValueError(f"columns[{q}]: must be a list of literals")
        try:
            cols.append([fld.parse(x) for x in col])
        except ValueError as exc:
            raise ValueError(f"columns[{q}]: {exc}") from exc
    return LinearMap(dim, fld, cols)


def matrix_to_obj(M: HomJacobiMatrix) -> dict:
    return {
        "rows": M.nrows,
        "cols": M.ncols,
        "entries": [[M.field.format(x) for x in row] for row in M.rows],
    }


def matrix_entries_from_obj(obj, fld: Field) -> list:
    nrows = _need(obj, "rows", "matrix")
    ncols = _need(obj, "cols", "matrix")
    raw = _need(obj, "entries", "matrix")
    if len(raw) != nrows or any(len(r) != ncols for r in raw):
        raise ValueError(f"matrix: entries do not form {nrows}x{ncols}")
    return [[fld.parse(x) for x in row] for row in raw]


def matrix_to_plain(M: HomJacobiMatrix) -> str:
    return "".join(" ".join(M.field.format(x) for x in row) + "\n" for row in M.rows)


def matrix_entries_from_plain(text: str, fld: Field) -> list:
    return [[fld.parse(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]


def matrix_to_csv(M: HomJacobiMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in M.rows:
        writer.writerow([M.field.format(x) for x in row])
    return buf.getvalue()


def matrix_entries_from_csv(text: str, fld: Field) -> list:
    return [[fld.parse(tok) for tok in row] for row in csv.reader(io.StringIO(text)) if row]


def kernel_to_obj(maps) -> list:
    return [map_to_obj(f) for f in maps]


def load_json(path: str):
    """Parse a JSON file; every parse error names the file, and a syntax
    error its position."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer above the digit limit
        raise ValueError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _load(path: str, from_obj):
    """from_obj of the JSON in a file; every error names the file."""
    obj = load_json(path)
    try:
        return from_obj(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_algebra(path: str) -> SkewAlgebra:
    return _load(path, algebra_from_obj)


def load_map(path: str) -> LinearMap:
    return _load(path, map_from_obj)
