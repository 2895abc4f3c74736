"""Serving benchmark: one workload against ``IndexServer``, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup-1d --seed 1 --seconds 15 --trace 0

The process first pins all its threads to one CPU, and every time it
reports is read from a ``workloads.StealFreeClock`` on that CPU (see
``perfbench/NOTES.md``, "Steadiness").

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same workload untraced and then traced (each for
``--seconds``), reports the per-layer metrics of the traced phase plus
``trace.overhead_frac``, and writes the recorded spans to
``perfbench/out/``.  Every answer is checked in both modes.  The last
line of standard output is the result object; the lines before it are a
human-readable table of every metric with its unit and sample count.
See ``perfbench/NOTES.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
#: Server builds per run: at least this many, and more until this much
#: build time has passed; ``setup_s`` is their median.
SETUP_BUILDS = 5
SETUP_MIN_S = 4.0
WARMUP_FRACTION = 0.1


def _env(seed: int) -> dict[str, object]:
    """Everything that decides whether two results are comparable."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def _git_sha() -> str | None:
    """HEAD commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _pin() -> int | None:
    """Run this process, and every thread it starts, on one CPU.

    Returns that CPU, or None where affinity cannot be set.  Called
    before numpy is imported, so that its thread pool is pinned too.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def _build(workload, build_times: list[float] | None = None):
    """Build one server; ``build_times`` collects each shard index build span."""
    from repro.serve import IndexServer

    clock = workload.clock
    cls = workload.index_cls
    factory = cls
    if build_times is not None:
        def factory():
            index = cls()
            raw = index.build

            def build(*args, **kwargs):
                t0 = clock()
                try:
                    return raw(*args, **kwargs)
                finally:
                    build_times.append(clock() - t0)

            index.build = build
            return index

    t0 = clock()
    server = IndexServer(factory, **workload.server_kwargs).build(workload.data)
    return server, clock() - t0


def _setup(workload, traced: bool):
    """Build servers repeatedly, keep the last; returns it and the timings."""
    totals, index_sums = [], []
    server = None
    while len(totals) < SETUP_BUILDS or sum(totals) < SETUP_MIN_S:
        if server is not None:
            server.close()
            server = None
        spans: list[float] = []
        server, total = _build(workload, spans if traced else None)
        totals.append(total)
        index_sums.append(sum(spans))
    return server, totals, index_sums


def _throughput(phase) -> float:
    """Requests completed per steal-free second, over the segments."""
    from workloads import available

    done, seconds, _ = available(phase)
    return done / seconds


def _end_to_end(phase, setup_s: float, bytes_per_key: float) -> dict:
    """The gated end-to-end metrics of one untraced phase, with units."""
    from workloads import available, percentile

    _, _, scaled = available(phase)
    return {
        "throughput_ops_s": (_throughput(phase), "ops/s"),
        "latency_p50_us": (percentile([r for rows in scaled.values() for r in rows], 50)
                           * 1e6, "us"),
        "cpu_us_per_op": (phase.cpu_s / phase.completed * 1e6, "us"),
        "setup_s": (setup_s, "s"),
        "index_bytes_per_key": (bytes_per_key, "bytes/key"),
    }


LAYER_UNITS = {
    "coalescer.queue_wait_us": "us",
    "coalescer.batch_size": "requests",
    "coalescer.scalar_frac": "ratio",
    "coalescer.wakeup_us": "us",
    "server.admit_us_per_req": "us",
    "sharding.route_us_per_req": "us",
    "sharding.execute_self_us": "us",
    "sharding.insert_us": "us",
    "sharding.knn_candidates_per_query": "count",
    "cache.hit_ratio": "ratio",
    "cache.repeat_miss_ratio": "ratio",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "stats.record_us_per_req": "us",
    "index.lookup_us_per_key": "us",
    "index.corrections_per_lookup": "count",
    "index.busy_frac": "ratio",
    "index.insert_us": "us",
    "index.range_us": "us",
    "index.knn_us": "us",
    "index.knn_range_rounds": "count",
    "index.keys_scanned_per_result": "count",
    "serve_overhead_x": "x",
    "setup.index_build_s": "s",
    "setup.partition_s": "s",
    "trace.overhead_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "serve" / "server.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    cpu = _pin()
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from spans import Tracer, layer_metrics

    clock = workloads.StealFreeClock(cpu)
    env = _env(args.seed)
    env["clock"] = clock.kind
    workload = workloads.make_workload(args.workload, args.seed, args.seconds, clock)
    traced = bool(args.trace)
    server, setup_totals, index_sums = _setup(workload, traced)
    try:
        warm = workload.drive(server, args.seconds * WARMUP_FRACTION, warmup=True)
        phase = workload.drive(server, args.seconds)
        phases = [warm, phase]
        if traced:
            tracer = Tracer()
            tracer.install_server(server)
            corrections0 = server.store.stats().corrections
            tracer.active = True
            traced_phase = workload.drive(server, args.seconds, tracer)
            tracer.active = False
            corrections = server.store.stats().corrections - corrections0
            phases.append(traced_phase)
        store_stats = server.store.stats()
        bytes_per_key = store_stats.size_bytes / len(server.store)
        written, lost = workload.check_writes(server)
    finally:
        server.close()
    wrong_late = workload.check_results()

    attempted = sum(p.attempted for p in phases)
    shed = sum(p.shed for p in phases)
    errored = sum(p.errored for p in phases)
    wrong = sum(p.wrong for p in phases) + wrong_late
    failed = shed + errored + wrong + lost
    correct = wrong == 0 and lost == 0 and errored == 0

    setup_s = statistics.median(setup_totals)
    e2e = _end_to_end(phase, setup_s, bytes_per_key)
    if traced:
        _, traced_s, _ = workloads.available(traced_phase)
        layers = layer_metrics(tracer, traced_s, traced_phase.completed, corrections)
        index_build = statistics.median(index_sums)
        layers["setup.index_build_s"] = index_build
        layers["setup.partition_s"] = statistics.median(
            t - i for t, i in zip(setup_totals, index_sums))
        layers["trace.overhead_frac"] = 1.0 - _throughput(traced_phase) / _throughput(phase)
        reported = {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        reported = e2e

    # Human-readable table: every metric with its unit and sample count.
    _, avail_s, scaled = workloads.available(phase)
    everything = [r for rows in scaled.values() for r in rows]
    marks = phase.marks
    steal_free_frac = avail_s / (marks[-1][0] - marks[0][0])
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload}  seconds {args.seconds}  trace {args.trace}")
    print(f"# setup builds (s): {', '.join(f'{t:.3f}' for t in setup_totals)}")
    print(f"{'metric':40s} {'value':>16s}  {'unit':10s} samples")
    for op, rows in sorted(scaled.items()):
        print(f"{op + '_p50_us':40s} {workloads.percentile(rows, 50) * 1e6:16.1f}  "
              f"{'us':10s} {workloads.sample_count(rows)}")
    print(f"{'latency_p99_us (not gated)':40s} "
          f"{workloads.percentile(everything, 99) * 1e6:16.1f}  {'us':10s} "
          f"{workloads.sample_count(everything)}")
    print(f"{'wall_throughput_ops_s (not gated)':40s} "
          f"{phase.completed / phase.wall_s:16.1f}  {'ops/s':10s}")
    print(f"{'steal_free_frac (not gated)':40s} {steal_free_frac:16.4f}  {'ratio':10s}")
    for name, (value, unit) in e2e.items():
        samples = workloads.sample_count(everything) if name.startswith("latency") else ""
        print(f"{name:40s} {value:16.4f}  {unit:10s} {samples}")
    print(f"{'fail_rate':40s} {failed / max(attempted, 1):16.6f}  {'ratio':10s} {attempted}")
    print(f"# shed {shed} errored {errored} wrong {wrong} writes checked {written} lost {lost}")
    if traced:
        for name, (value, unit) in reported.items():
            print(f"{name:40s} {value:16.4f}  {unit:10s}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env, "workload": args.workload, "seconds": args.seconds,
        "setup_builds_s": setup_totals,
        "samples": {op: workloads.sample_count(r) for op, r in scaled.items()},
        "op_p50_us": {op: workloads.percentile(r, 50) * 1e6 for op, r in scaled.items()},
        "latency_p99_us": workloads.percentile(everything, 99) * 1e6,
        "wall_throughput_ops_s": phase.completed / phase.wall_s,
        "steal_free_frac": steal_free_frac,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "fail_rate": failed / max(attempted, 1),
        "metrics": {k: v for k, (v, _) in reported.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        # One spans file per workload, overwritten: a traced cached-1d
        # run records ~60 MB of spans.
        tracer.write(OUT / f"{args.workload}-spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
