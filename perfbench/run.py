"""Benchmark of darbouxlie: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src`` next to this
directory.  Workloads (see BENCHMARK.json for why each was chosen):

* ``tables``, ``trees``, ``classes``: the CLI verbs ``verify-tables
  --algebra all``, ``darboux-verify --tree all`` and ``coboundary-classes``
  on the shipped golden data, each pass a fresh process (``batch.py``).
  They do not use the seed.
* ``query``: a seeded closed-loop stream of single-algebra API queries
  (``query.py``).

``--trace 0`` measures the end-to-end metrics with nothing traced.  Every
time is corrected for the host's speed (``hostspeed.py``): a fixed
reference chunk runs every 0.2 s inside the process doing the work, its
time is taken out of the work's, and the rest is scaled to what it would
take on the reference host.  The raw times are printed above the result
line.

* ``wall_s``, ``cpu_s``: median wall and CPU time of one unit of work: a
  CLI pass to its full verdict, or one block of queries.
* ``p50_ms``, ``p99_ms``, ``queries_per_s``: per-request latency and
  throughput.  A request is one query on ``query`` (at least 1600 samples,
  so at least sixteen lie beyond p99) and one whole CLI verdict on the batch
  workloads, where the run has one or two samples.
* ``setup_s``: median over 16 fresh processes of importing darbouxlie and
  parsing the golden data the workload reads (import only for ``query``),
  half before and half after the measured work.
* ``peak_rss_mb``: the largest resident set of the processes that ran the
  program.

A run measures until its corrected time reaches ``--seconds``: whole CLI
passes, or blocks of queries (at least ``MIN_QUERY_SAMPLES`` queries).

``--trace 1`` makes one untraced and one traced pass (for ``query``, a few
blocks of each) and reports the per-layer metrics of ``trace.py`` plus
``trace.overhead_s`` (traced minus untraced wall time of the unit of work;
it can read below zero when the host's speed changes between the two) and
``fail_ratio``.

Every output is checked (CLI digests, or an independent cross-check of each
query answer).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
if any check failed and 2 if the program cannot be found.  ``--workload
all`` runs the four workloads in turn and prints one such line for each,
prefixed by the workload's name.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import math
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(ROOT))

WORKLOADS = ("tables", "trees", "classes", "query")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "p50_ms": "ms", "p99_ms": "ms",
             "queries_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_REPEATS = 16
MIN_QUERY_SAMPLES = 1600
TRACE_QUERY_BLOCKS = 4


def per_layer_units() -> dict[str, str]:
    from perfbench.trace import metric_units
    return {**metric_units(), "trace.overhead_s": "s", "fail_ratio": "ratio"}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def result(metrics: dict, attempted: int, failed: int, units: dict) -> dict:
    if set(metrics) != set(units):
        raise KeyError(f"metrics {sorted(set(metrics) ^ set(units))} "
                       f"do not match the declared set")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------

def batch_untraced(workload: str, seconds: float):
    from perfbench import batch
    setup = batch.setup_times(workload, ROOT, SETUP_REPEATS // 2)
    passes, walls = [], []
    while True:
        passes.append(batch.run_pass(workload, ROOT))
        walls.append(passes[-1]["wall"] * passes[-1]["speed"])
        if sum(walls) + walls[-1] > seconds:
            break
    setup += batch.setup_times(workload, ROOT, SETUP_REPEATS // 2)
    checks = passes[0]["checks"]
    failed = sum(checks for p in passes if not p["ok"])
    print(f"{workload}: {len(passes)} pass(es), raw wall "
          + ", ".join(f"{p['wall']:.3f} s at speed {p['speed']:.3f}"
                      for p in passes))
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu"] * p["speed"] for p in passes),
        "p50_ms": 1000 * statistics.median(walls),
        "p99_ms": 1000 * percentile(walls, 0.99),
        "queries_per_s": len(walls) / sum(walls),
        "setup_s": statistics.median(t * speed for t, speed in setup),
        "peak_rss_mb": max(p["rss"] for p in passes),
    }
    return metrics, checks * len(passes), failed


def batch_traced(workload: str):
    from perfbench import batch
    plain = batch.run_pass(workload, ROOT)
    cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
           workload, str(WORK / f"spans-{workload}.bin")]
    rc, out, wall, _, _ = batch.run_child(cmd, ROOT)
    if rc != 0:
        raise RuntimeError(f"traced pass of {workload} exited with {rc}")
    traced = json.loads(out.decode().splitlines()[-1])
    checks = plain["checks"]
    failed = checks * (not plain["ok"]) + checks * (not traced["ok"])
    print(f"{workload}: untraced {plain['wall']:.3f} s, traced {wall:.3f} s")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = wall - plain["wall"]
    metrics["fail_ratio"] = failed / (2 * checks)
    return metrics, 2 * checks, failed


# ---------------------------------------------------------------------------
# query workload
# ---------------------------------------------------------------------------

def query_blocks(seed: int):
    from perfbench import query
    return (query.generate_block(seed, n) for n in itertools.count())


def query_untraced(seed: int, seconds: float):
    from perfbench import batch, query
    from perfbench.hostspeed import Sampler, mean_speed
    setup = batch.setup_times("query", ROOT, SETUP_REPEATS // 2)
    lat, walls, cpus, raw = [], [], [], []
    failed = 0
    stream = query_blocks(seed)
    while sum(walls) < seconds or len(lat) < MIN_QUERY_SAMPLES:
        block = next(stream)
        with Sampler() as sampler:
            l, results, wall, cpu = query.run_block(block, sampler.net_time,
                                                    sampler.net_cpu)
        speed = mean_speed(sampler.samples)
        failed += query.check_block(block, results)
        lat += [x * speed for x in l]
        walls.append(wall * speed)
        cpus.append(cpu * speed)
        raw.append(wall)
    setup += batch.setup_times("query", ROOT, SETUP_REPEATS // 2)
    n = len(lat)
    beyond = n - math.ceil(0.99 * n)
    print(f"query: {n} samples in {len(walls)} blocks of {query.BLOCK}, "
          f"{beyond} beyond p99; raw block wall "
          + ", ".join(f"{w:.3f}" for w in raw) + " s")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "p50_ms": 1000 * statistics.median(lat),
        "p99_ms": 1000 * percentile(lat, 0.99),
        "queries_per_s": n / sum(walls),
        "setup_s": statistics.median(t * speed for t, speed in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    return metrics, n, failed


def query_traced(seed: int):
    from perfbench import query
    from perfbench.trace import Tracer
    stream = query_blocks(seed)
    blocks = [next(stream) for _ in range(2 * TRACE_QUERY_BLOCKS)]
    plain = [query.run_block(b) for b in blocks[:TRACE_QUERY_BLOCKS]]
    with Tracer() as tracer:
        traced = [query.run_block(b) for b in blocks[TRACE_QUERY_BLOCKS:]]
    tracer.dump(WORK / "spans-query.bin")
    failed = sum(query.check_block(b, r[1])
                 for b, r in zip(blocks, plain + traced))
    attempted = sum(len(b) for b in blocks)
    wall = [statistics.median(r[2] for r in runs) for runs in (plain, traced)]
    print(f"query: untraced {wall[0]:.3f} s, traced {wall[1]:.3f} s "
          f"per block of {query.BLOCK}")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = wall[1] - wall[0]
    metrics["fail_ratio"] = failed / attempted
    return metrics, attempted, failed


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int):
    if workload == "query":
        return query_traced(seed) if trace else query_untraced(seed, seconds)
    return (batch_traced(workload) if trace
            else batch_untraced(workload, seconds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "darbouxlie" / "__init__.py").is_file():
        print(f"error: darbouxlie sources not found under {src}",
              file=sys.stderr)
        return 2
    # byte-compile once, outside every timed region
    compileall.compile_dir(str(src), quiet=1)
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")   # as the CLI does
    import darbouxlie  # noqa: F401

    units = per_layer_units() if args.trace else E2E_UNITS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        out = result(*run_workload(name, args.seed, args.seconds, args.trace),
                     units=units)
        correct = correct and out["correct"]
        print(("" if len(names) == 1 else f"{name}: ") + json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
