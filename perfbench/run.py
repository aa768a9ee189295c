"""Run one homlie benchmark workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide_qq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one process. The run
sets up its inputs and warms up, then measures whole rounds of the
workload's operation mix for at least `--seconds` seconds and at least
MIN_OPS operations, and finally checks every answer against independent
reference code. Further set-ups are spread over the measured window,
outside it; `setup_s` is the median of all of them. Every reported time
is a wall-clock time scaled to the machine's speed at that moment (see
speed.py). The
human-readable report goes first; the last line of stdout is one JSON
object. `--workload all` runs each workload in a child process of its own
and prints one JSON object keyed by workload name.

With `--trace 1` rounds alternate between traced and untraced, and the
metrics are the per-layer ones (see README.md); spans are written to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from speed import SpeedClock
from tracing import LAYERS, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100   # so that at least 10 samples lie beyond the 90th percentile


def import_package():
    """Put the checkout's own source first on the path; never an installed copy."""
    if not (SRC / "homlie" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'homlie'}; "
                         "run from the root of a homlie checkout")
    sys.path.insert(0, str(SRC))
    import homlie
    if pathlib.Path(homlie.__file__).resolve().parent != SRC / "homlie":
        raise SystemExit(f"perfbench: imported homlie from {homlie.__file__}, not {SRC}")


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS, setups: int | None = None) -> dict:
    """Set up, measure and gate one workload; returns the raw run record.

    `setups` defaults to the workload's own count.
    """
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT)
    try:
        return _measure(cls, seed, seconds, trace, min_ops, setups or cls.setups, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(cls, seed, workdir, clock):
    """One set-up: input generation plus a warm-up round.

    Returns (workload, scaled seconds); each step is timed on its own.
    """
    wl, _, total = clock.call(cls, seed, workdir)
    if isinstance(wl, Exception):
        raise wl
    for j, op in enumerate(wl.round):
        total += clock.call(wl.execute, op, -1 - j)[2]
    return wl, total


def _measure(cls, seed, seconds, trace, min_ops, setups, workdir):
    clock = SpeedClock()
    wl, first = _setup(cls, seed, workdir, clock)
    setup_times = [first]
    tracer = Tracer() if trace else None
    records = []            # (wall_s, scaled_s, label, traced)
    ops = {True: 0, False: 0}
    failed = 0
    rounds = 0
    window = 0.0            # time spent in measured rounds
    while True:
        traced = trace and rounds % 2 == 0
        round_start = time.perf_counter()
        if traced:
            tracer.install()
        for op in wl.round:
            i = len(records)
            if traced:
                tracer.op = i
            ok, wall, scaled = clock.call(wl.execute, op, i)
            if isinstance(ok, Exception):
                if failed == 0:
                    traceback.print_exception(ok, file=sys.stderr)
                ok = False
            records.append((wall, scaled, wl.label(op), traced))
            failed += not ok
        if traced:
            tracer.remove()
        ops[traced] += len(wl.round)
        rounds += 1
        window += time.perf_counter() - round_start
        # The other set-ups are spread over the window, between rounds.
        if len(setup_times) < setups and window >= seconds * len(setup_times) / setups:
            setup_times.append(_setup(cls, seed, workdir, clock)[1])
        if (window >= seconds and len(records) >= min_ops
                and (not trace or rounds % 2 == 0)):
            break
    while len(setup_times) < setups:
        setup_times.append(_setup(cls, seed, workdir, clock)[1])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed += wl.failures()
    if trace:
        tracer.write(str(OUT / f"spans-{cls.name}-{seed}.jsonl"))
    return {
        "workload": cls.name, "seed": seed, "setup_times": setup_times,
        "records": records, "window": window, "failed": failed,
        "peak_rss_kb": peak_rss_kb, "ops": ops, "tracer": tracer,
    }


def end_to_end(run: dict) -> dict:
    lat = [r[1] for r in run["records"]]
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(run["setup_times"]), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(run: dict) -> dict:
    tracer: Tracer = run["tracer"]
    n = run["ops"][True]
    # span times are wall times; scale each by its operation's speed factor
    factor = {i: r[1] / r[0] for i, r in enumerate(run["records"]) if r[3] and r[0] > 0}
    self_ns = tracer.self_times_ns(factor)
    calls = tracer.calls()
    c = tracer.counters
    out = {}
    for name in LAYERS:
        out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / n, "ms/op")
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "calls/op")
    for name, unit in (("system.kernel_basis.vectors", "vectors/op"),
                       ("system.build_matrix.entries", "entries/op"),
                       ("system.build_matrix.nonzeros", "entries/op"),
                       ("files.dumps_canonical.bytes", "bytes/op")):
        out[name] = (c.get(name, 0) / n, unit)
    by_command = {}   # decide_qq labels its operations "<command>:<input class>"
    for _, scaled, label, traced in run["records"]:
        if traced and ":" in label:
            by_command.setdefault(label.split(":")[0], []).append(scaled)
    for cmd in ("check", "kernel", "det", "matrix", "sample"):
        lat = by_command.get(cmd)
        out[f"cli.{cmd}.p50_ms"] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    decisions = c.get("decisions", 0)
    out["full_rank_share"] = (c.get("full_rank", 0) / decisions if decisions else 0.0, "ratio")
    transports = calls.get("algebra.SkewAlgebra.transport", 0)
    out["algebra.LinearMap.inverse.per_transport"] = (
        calls.get("algebra.LinearMap.inverse", 0) / transports if transports else 0.0, "ratio")
    busy = {k: sum(r[1] for r in run["records"] if r[3] == k) for k in (True, False)}
    rate = {k: run["ops"][k] / busy[k] for k in (True, False)}
    out["tracing_overhead"] = (rate[True] / rate[False], "ratio")
    traced_ns = sum(r[0] for r in run["records"] if r[3]) * 1e9
    out["untraced_share"] = (1 - tracer.top_level_ns() / traced_ns, "ratio")
    return out


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable report and return the contract's JSON object."""
    attempted = len(run["records"])
    metrics = per_layer(run) if trace else end_to_end(run)
    print(f"# workload {run['workload']}  seed {run['seed']}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"{platform.platform()}")
    wall_s = sum(r[0] for r in run["records"])
    scaled_s = sum(r[1] for r in run["records"])
    print(f"# {attempted} operations in {run['window']:.2f} s; wall-clock "
          f"{attempted / wall_s:.4g} ops/s, speed {scaled_s / wall_s:.3f} "
          f"of the reference; scaled set-ups "
          f"{', '.join(f'{t:.3f}' for t in run['setup_times'])} s")
    groups = {}
    for wall, scaled, label, traced in run["records"]:
        if not traced:
            groups.setdefault(label, []).append((wall, scaled))
    for label, lat in groups.items():
        print(f"#   {label:<18} n={len(lat):<4} p50 wall "
              f"{statistics.median(w for w, _ in lat) * 1e3:9.2f} ms, "
              f"scaled {statistics.median(s for _, s in lat) * 1e3:9.2f} ms")
    print(f"{'failed_ratio':<46} {run['failed'] / attempted:>14.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6g} {unit}")
    return {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="decide_qq, transport_qq, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    if len(names) == 1:
        record = run_workload(WORKLOADS[names[0]], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(record, bool(args.trace))))
        return 0
    # One child process per workload, so that peak_rss_mb is each one's own.
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
