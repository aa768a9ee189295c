"""The benchmark workloads: inputs, one operation, and the gate.

Each workload is driven closed-loop by one client: the next operation
starts when the previous one returns. An operation's inputs are derived
from the workload seed and the operation's index, so a run is a pure
function of the seed. The package only sees the generated inputs.

Every answer is checked by `failures()` after the timed window, against
reference code in `reference.py` that shares nothing with `homlie.linalg`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import combinations

import homlie
import homlie.cli
import homlie.files
import homlie.lab
import homlie.system

import reference as ref

FP = 10007


class Workload:
    """Set up inputs, run one operation, and count wrong answers."""

    name = ""
    setups = 7    # set-ups per run; setup_s is their median

    def __init__(self, seed: int, workdir: str):
        """Generate the inputs for `seed`; files, if any, go into `workdir`."""
        self.seed = seed
        self.round = []    # one closed-loop round of operations, in order;
                           # set-up warms up by running it once

    def label(self, op) -> str:
        """Group name of an operation, for per-group latency reports."""
        return str(op)

    def execute(self, op, i: int) -> bool:
        """Run operation `op` as the i-th of the run; False on a visible failure.

        Warm-up operations get negative indices and are left out of the gate.
        """
        raise NotImplementedError

    def failures(self) -> int:
        """Operations whose answer the reference rejects (run after timing)."""
        return 0


def certify_maps(A, maps, nullity: int, p: int) -> bool:
    """The maps are nonzero twisting maps of A, independent mod p, and `nullity` many.

    With k independent kernel maps, nullity >= k; with the reference
    nullity mod p equal to k and nullity_p >= nullity_Q, the nullity is
    exactly k. Over F_p, p is the field's own prime and the reference
    nullity is exact.
    """
    if len(maps) != nullity:
        return False
    flats = []
    for f in maps:
        defects = homlie.system.hom_jacobi_defect(A, f)
        if any(x != 0 for _, vec in defects for x in vec) or f.is_zero():
            return False
        flats.append([ref.to_mod(x, p) for x in f.flatten()])
    return ref.rank_mod_p(flats, p) == len(flats)


# --- decide_qq -----------------------------------------------------------

def _lie_constants(parts):
    """Direct sum of Lie algebras given as (dim, {(i, j): {k: c}}) blocks."""
    out, offset = {}, 0
    for dim, brackets in parts:
        for (i, j), vec in brackets.items():
            out[(i + offset, j + offset)] = {k + offset: c for k, c in vec.items()}
        offset += dim
    return offset, out


SL2 = (3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
H3 = (3, {(1, 2): {3: 1}})
H5 = (5, {(1, 2): {5: 1}, (3, 4): {5: 1}})


def abelian(d):
    return (d, {})


# Rank-deficient inputs: Lie algebras, moved by a seeded unimodular map.
LIE_INPUTS = {
    "sl2+a1": [SL2, abelian(1)],
    "h3+a1": [H3, abelian(1)],
    "sl2+a2": [SL2, abelian(2)],
    "h5": [H5],
    "sl2+h3": [SL2, H3],
    "sl2+sl2": [SL2, SL2],
}
# Generic inputs: uniform integer structure constants in [-10, 10].
GENERIC_INPUTS = {"gen4": 4, "gen5": 5, "gen6": 6}


def _unimodular(dim: int, rnd: random.Random):
    """A seeded integer map of determinant +-1 and its inverse.

    It is a product of three elementary row operations row_a += c * row_b
    with c = +-1. More steps make larger entries, and the cost of Fraction
    elimination on the moved algebra then varies a lot from seed to seed.
    """
    g = [[int(r == c) for c in range(dim)] for r in range(dim)]
    ginv = [row[:] for row in g]
    for _ in range(3):
        a, b = rnd.sample(range(dim), 2)
        c = rnd.choice((-1, 1))
        g[a] = [x + c * y for x, y in zip(g[a], g[b])]
        # E^-1 applied on the right: column b -= c * column a
        for row in ginv:
            row[b] -= c * row[a]
    return g, ginv


def _transport(dim, constants, g, ginv):
    """Structure constants of mu'(x, y) = g mu(g^-1 x, g^-1 y)."""
    def mu(x, y):
        out = [0] * dim
        for (i, j), vec in constants.items():
            c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            if c:
                for k, v in vec.items():
                    out[k - 1] += c * v
        return out

    cols = [[ginv[r][c] for r in range(dim)] for c in range(dim)]
    out = {}
    for i, j in combinations(range(1, dim + 1), 2):
        w = mu(cols[i - 1], cols[j - 1])
        gw = [sum(g[r][s] * w[s] for s in range(dim)) for r in range(dim)]
        if any(gw):
            out[(i, j)] = gw
    return out


def _algebra_obj(dim, constants):
    return {
        "dim": dim,
        "field": {"kind": "rational"},
        "products": [
            {"left": i, "right": j, "coeffs": [str(x) for x in vec]}
            for (i, j), vec in sorted(constants.items())
        ],
    }


class DecideQq(Workload):
    """CLI decisions: check, kernel, det and matrix on rational algebra
    files, and the genericity experiment (`sample`) over F_10007."""

    name = "decide_qq"

    # (command, input class, operations per round). The operation at
    # position p of round r reads variant (r + p) % VARIANTS of its class, so
    # no file is read twice in a round and a run averages the cost of many
    # inputs; its figures then vary little from seed to seed. `sample` draws
    # a fresh seed per operation. Per round of 33, 10 operations take under
    # ~10 ms scaled (n = 4 and small deficient inputs), and the median falls
    # in the next 8 (n = 4 generic and n = 6 deficient check/kernel, matrix
    # at n = 5, 14-20 ms). The 6 operations right above them (sl2+sl2
    # check/kernel and sample at n = 6, 25-30 ms) are weighted up so that the
    # median has close neighbours on both sides. The 90th percentile falls
    # in the n = 5 generic check/kernel group, between sample at n = 7 and
    # at n = 8.
    MIX = [
        ("det", "gen4", 1), ("matrix", "gen4", 1), ("check", "sl2+a1", 1),
        ("kernel", "h3+a1", 1), ("det", "sl2+a1", 1), ("matrix", "sl2+a1", 1),
        ("check", "sl2+a2", 1), ("kernel", "sl2+a2", 1), ("check", "h5", 1),
        ("matrix", "sl2+sl2", 1),
        ("check", "gen4", 3), ("kernel", "gen4", 2), ("matrix", "gen5", 1),
        ("check", "sl2+h3", 1), ("kernel", "sl2+h3", 1), ("check", "sl2+sl2", 2),
        ("kernel", "sl2+sl2", 2),
        ("sample", "fp6", 2),
        ("matrix", "gen6", 2), ("sample", "fp7", 2), ("check", "gen5", 2),
        ("kernel", "gen5", 1), ("sample", "fp8", 1), ("check", "gen6", 1),
    ]
    VARIANTS = 12
    # A round, and so one set-up, takes ~2 s scaled; fewer set-ups keep a
    # run short.
    setups = 3
    SAMPLE_DIMS = {"fp6": 6, "fp7": 7, "fp8": 8}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rnd = random.Random(seed)
        self.inputs = {}   # (class, variant) -> (dim, constants)
        self.paths = {}
        for v in range(self.VARIANTS):
            for name, dim in GENERIC_INPUTS.items():
                self.inputs[name, v] = (dim, {
                    pair: [rnd.randint(-10, 10) for _ in range(dim)]
                    for pair in combinations(range(1, dim + 1), 2)
                })
            for name, parts in LIE_INPUTS.items():
                dim, lie = _lie_constants(parts)
                g, ginv = _unimodular(dim, rnd)
                self.inputs[name, v] = (dim, _transport(dim, lie, g, ginv))
        for (name, v), (dim, constants) in self.inputs.items():
            path = os.path.join(workdir, f"{name}-{v}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_algebra_obj(dim, constants), fh)
            self.paths[name, v] = path
        self.round = [(cmd, name) for cmd, name, w in self.MIX for _ in range(w)]
        # (command, (class, variant or seed), stdout) -> number of operations
        self.outputs = {}

    def label(self, op):
        cmd, name = op
        return f"{cmd}:{name}"

    def execute(self, op, i):
        cmd, name = op
        if cmd == "sample":
            key = ref.split(self.seed, i)
            name = (name, key)
            argv = ["sample", "--dim", str(self.SAMPLE_DIMS[name[0]]), "--trials", "1",
                    "--prime", str(FP), "--seed", str(key)]
        else:
            r, pos = divmod(max(i, 0), len(self.round))
            name = (name, (r + pos) % self.VARIANTS)
            argv = [cmd, self.paths[name]] + (["--format", "json"] if cmd == "matrix" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = homlie.cli.main(argv)
        if status != 0:
            return False
        if i < 0:
            return True
        key = (cmd, name, out.getvalue())
        self.outputs[key] = self.outputs.get(key, 0) + 1
        return True

    def failures(self):
        bad = 0
        facts = {}
        for (cmd, name, text), count in self.outputs.items():
            try:
                if cmd == "sample":
                    ok = self._verify_sample(name, json.loads(text))
                else:
                    if name not in facts:
                        facts[name] = self._reference(name)
                    ok = self._verify(cmd, name, json.loads(text), facts[name])
            except (ValueError, KeyError, TypeError, ZeroDivisionError):
                ok = False
            bad += 0 if ok else count
        return bad

    def _verify_sample(self, name, obj):
        """The one-trial histogram must hold the reference nullity mod p."""
        cls, key = name
        dim = self.SAMPLE_DIMS[cls]
        # genericity_experiment draws trial t's algebra from split(key, t)
        constants = ref.random_constants_mod_p(dim, FP, ref.split(key, 0))
        nul = dim * dim - ref.rank_mod_p(ref.hom_jacobi_rows(dim, constants, FP), FP)
        return (obj["dim"] == dim and obj["p"] == FP and obj["trials"] == 1
                and obj["seed"] == key and obj["histogram"] == {str(nul): 1}
                and obj["full_rank"] == int(nul == 0))

    def _reference(self, name):
        dim, constants = self.inputs[name]
        rows = ref.hom_jacobi_rows(dim, constants, ref.P2)
        facts = {
            "nullity": dim * dim - ref.rank_mod_p(rows, ref.P2),
            "is_lie": ref.is_lie_mod_p(dim, constants, ref.P2),
            "det": ref.det_mod_p(rows, ref.P2) if len(rows) == dim * dim else None,
        }
        facts["algebra"] = homlie.make_algebra(
            dim, homlie.QQ, [(i, j, list(v)) for (i, j), v in constants.items()])
        return facts

    def _verify(self, cmd, name, obj, facts):
        A = facts["algebra"]
        nul = facts["nullity"]
        if cmd == "check":
            witness = obj["witness"]
            return (
                obj["dim"] == A.dim and obj["nullity"] == nul
                and obj["is_hom_lie"] is (nul >= 1) and obj["is_lie"] is facts["is_lie"]
                and ((witness is None) if nul == 0
                     else certify_maps(A, [homlie.files.map_from_obj(witness)], 1, ref.P2))
            )
        if cmd == "kernel":
            return certify_maps(A, [homlie.files.map_from_obj(o) for o in obj], nul, ref.P2)
        if cmd == "det":
            return ref.to_mod(Fraction(obj["det"]), ref.P2) == facts["det"]
        if cmd == "matrix":
            n = A.dim
            if obj["rows"] != n * homlie.system.triple_count(n) or obj["cols"] != n * n:
                return False
            rows = [[Fraction(x) for x in row] for row in obj["entries"]]
            rnd = random.Random(f"{self.seed}:{name}")
            flat = [Fraction(rnd.randint(-9, 9)) for _ in range(n * n)]
            f = homlie.LinearMap.from_flat(n, homlie.QQ, flat)
            defects = [x for _, vec in homlie.system.hom_jacobi_defect(A, f) for x in vec]
            return ref.mat_vec_fraction(rows, flat) == defects
        return False


# --- transport_qq --------------------------------------------------------

class TransportQq(Workload):
    """Invariance battery (criterion 9) with one transport per operation.

    The battery only compares the package's kernel with itself, so the gate
    also checks the base kernel the battery starts from: its nullity must be
    the catalog's verified nullity, or the reference nullity mod p for the
    random algebras, and its maps must certify it.
    """

    name = "transport_qq"

    # algebra -> operations per round. The four costly algebras (~20-40 ms)
    # cost about the same and overlap, and take 10 of 16 slots, so both
    # percentiles fall inside that one wide group.
    MIX = {
        "random3": 1, "abelian3": 1, "heisenberg3": 1, "cross_product3": 1,
        "random4": 1, "abelian4": 1, "sl2_plus_abelian4": 2, "random5": 2,
        "abelian5": 3, "nonhomlie4": 3,
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fp = homlie.PrimeField(FP)
        self.algebras = {}
        self.nullity = {}   # algebra -> expected nullity, or its reference constants
        for c in homlie.lab.catalog():
            self.algebras[c.name] = c.algebra
            self.nullity[c.name] = c.nullity
        for n in (3, 4, 5):
            constants = ref.random_constants_mod_p(n, FP, ref.split(seed, n))
            self.algebras[f"random{n}"] = homlie.make_algebra(
                n, fp, [(i, j, v) for (i, j), v in constants.items()])
            self.nullity[f"random{n}"] = (n, constants)
        self.round = [name for name, w in self.MIX.items() for _ in range(w)]
        self.done = {}      # algebra -> measured operations

    def execute(self, name, i):
        key = ref.split(self.seed, i)
        ok = homlie.lab.invariance_battery(self.algebras[name], trials=1, seed=key) is True
        if i >= 0:
            self.done[name] = self.done.get(name, 0) + 1
        return ok

    def failures(self):
        bad = 0
        for name, count in self.done.items():
            A = self.algebras[name]
            expected = self.nullity[name]
            if isinstance(expected, tuple):
                n, constants = expected
                expected = n * n - ref.rank_mod_p(ref.hom_jacobi_rows(n, constants, FP), FP)
            # the battery's own path to its base kernel
            base = homlie.lab.kernel_basis(homlie.lab.build_matrix(A))
            p = FP if isinstance(A.field, homlie.PrimeField) else ref.P2
            if not certify_maps(A, base.maps, expected, p):
                bad += count
        return bad


WORKLOADS = {w.name: w for w in (DecideQq, TransportQq)}
