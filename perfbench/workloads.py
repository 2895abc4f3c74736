"""The three serving workloads: inputs from a seed, closed-loop clients, oracles.

Every workload drives one live ``IndexServer`` from this process with a
closed loop: a client sends its next request (or pipelined window) only
after the previous one came back.  Requests are generated here from the
``--seed`` alone over fixed data sets; the server only ever sees the
generated requests.
Every answer is checked against an oracle computed from the same
inputs, and each per-request latency is an exact ``perf_counter``
sample taken by the client: window send to window result for the
pipelined 1-d clients, call to return for the synchronous spatial
client.  Phase time is read from a :class:`StealFreeClock` at segment
boundaries, so that time the host gave to other tenants (steal) can be left
out of the figures.

Request objects are pre-built into per-client pools and reused
cyclically: building a ``Request`` costs more than a microsecond, which
would otherwise land in the measured loop.  A window is a contiguous
slice of its client's pool, so one request object is never in flight
twice at once (the tracer relies on that; see ``spans.py``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data import load_1d, load_nd
from repro.multidim import FloodIndex
from repro.onedim import ALEXIndex, PGMIndex
from repro.serve import IndexServer
from repro.serve.requests import Op, Overloaded, Request

#: The stored data sets are fixed corpora, as SOSD's files are; the run
#: seed draws everything sent to the server (keys read, fresh keys
#: inserted, query points and boxes).  A seeded corpus would make the
#: cross-seed spread measure the data set, not the code (NOTES.md).
CORPUS_SEED = 0
ZIPF_A = 1.3
CLIENTS = 2
WINDOW = 64
POOL_WINDOWS = 1024                # windows per client pool (65536 requests)
KEYS_1D = 1_000_000
POINTS_2D = 100_000
SPATIAL_SHARDS = 4
RANGE_SELECTIVITY = 1e-5
KNN_K = 10
KNN_PROBES = 64
#: Spatial ops per block; each block holds exactly one kNN query at a
#: seeded position, so every run has the same op mix (see NOTES.md).
SPATIAL_BLOCK = 300
#: Range queries per block, in seeded order among the point queries.
#: Not half: the pooled p50 would then fall in the gap between the
#: point and range latencies and jump with the last few ops of the mix.
SPATIAL_RANGES = 180
#: Wall time of one block at the seed commit on a 2-CPU host.  A measured
#: spatial phase runs round(seconds / SPATIAL_BLOCK_S) blocks, a fixed
#: amount of work: stopping on the clock instead lets a slow host finish
#: fewer blocks and so skip the cheaper later kNN probes, which doubled
#: the cross-seed spread of throughput.
SPATIAL_BLOCK_S = 1.25
#: A measured spatial phase stops early past this multiple of --seconds,
#: so that a slow host still ends a run well inside its time limit.
SPATIAL_TIME_CAP = 2.5
#: Reads the cached-1d clients send between two fresh-key inserts, on
#: average; the cache holds fewer entries than the run reads distinct
#: keys, so hits, evictions and generation invalidations all occur.
INSERT_FRAC = 0.01
CACHE_SIZE = 2048
#: Upper bound on the rate one client could ever sustain; sizes the
#: pre-generated fresh-key stream so it cannot run dry.
MAX_CLIENT_RATE = 300_000
#: Target length of one 1-d measurement segment; the segments tile the
#: phase exactly.  A spatial segment is one block.
SEGMENT_S = 1.0


class StealFreeClock:
    """Wall seconds minus the time the host took the benchmark's CPU away.

    ``run.py`` pins every thread of the process to one CPU.  In a VM on a
    shared host, that virtual CPU is sometimes ready to run but not
    running, because the host gave its core to another tenant; the
    guest kernel counts that time as *steal* in ``/proc/stat``.  Nothing
    of this process runs then, so this clock stops: it is
    ``perf_counter`` minus the pinned CPU's steal time.  Everything the
    program does itself stays in, waiting on its own timers included.
    On a host that steals nothing it is the wall clock; so it is without
    a pinned CPU or a readable ``/proc/stat``.
    """

    def __init__(self, cpu: int | None) -> None:
        self.hz = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
        self.prefix = None if cpu is None else f"cpu{cpu} "
        if self.prefix is not None and self.steal() is None:
            self.prefix = None

    @property
    def kind(self) -> str:
        return "wall" if self.prefix is None else f"wall-minus-steal:{self.prefix.strip()}"

    def steal(self) -> float | None:
        """Seconds of steal on the pinned CPU since boot."""
        if self.prefix is None:
            return 0.0
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    if line.startswith(self.prefix):
                        return int(line.split()[8]) / self.hz
        except (OSError, ValueError, IndexError):
            return None
        return None

    def __call__(self) -> float:
        return time.perf_counter() - self.steal()


@dataclass
class Phase:
    """What one timed closed-loop phase did and how long each request took."""

    wall_s: float = 0.0
    attempted: int = 0
    shed: int = 0
    errored: int = 0
    wrong: int = 0
    cpu_s: float = 0.0
    # op class -> list of (latency seconds, requests sharing that sample,
    # perf_counter at completion)
    samples: dict[str, list[tuple[float, int, float]]] = field(default_factory=dict)
    # segment boundaries: (perf_counter, StealFreeClock) pairs
    marks: list[tuple[float, float]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.shed - self.errored

    def add(self, op: str, seconds: float, count: int = 1, end: float = 0.0) -> None:
        self.samples.setdefault(op, []).append((seconds, count, end))

    def merge(self, other: "Phase") -> None:
        self.wall_s = max(self.wall_s, other.wall_s)
        self.attempted += other.attempted
        self.shed += other.shed
        self.errored += other.errored
        self.wrong += other.wrong
        for op, rows in other.samples.items():
            self.samples.setdefault(op, []).extend(rows)


def available(phase: Phase) -> tuple[int, float, dict[str, list[tuple[float, int]]]]:
    """Requests completed inside the segments, their ``StealFreeClock`` seconds,
    and every such latency sample rescaled to that clock.

    A sample is scaled by its segment's clock-to-wall ratio: the share of
    the segment the host left the CPU to this guest.
    """
    marks = phase.marks
    ends = np.array([m[0] for m in marks])
    scale = [(c1 - c0) / (w1 - w0) for (w0, c0), (w1, c1) in zip(marks, marks[1:])]
    done = 0
    scaled: dict[str, list[tuple[float, int]]] = {}
    for op, rows in phase.samples.items():
        seg = np.searchsorted(ends, [r[2] for r in rows], side="right") - 1
        out = scaled.setdefault(op, [])
        for (lat, count, _), k in zip(rows, seg):
            if 0 <= k < len(scale):
                out.append((lat * scale[k], count))
                done += count
    return done, marks[-1][1] - marks[0][1], scaled


def percentile(rows: list[tuple[float, int]], q: float) -> float:
    """Exact ``q``-th percentile of weighted latency samples, in seconds."""
    if not rows:
        return 0.0
    lat = np.fromiter((r[0] for r in rows), dtype=np.float64, count=len(rows))
    weight = np.fromiter((r[1] for r in rows), dtype=np.int64, count=len(rows))
    return float(np.percentile(np.repeat(lat, weight), q))


def sample_count(rows: list[tuple[float, int]]) -> int:
    return int(sum(r[1] for r in rows))


# -- 1-d workloads ------------------------------------------------------------
class _Client1D:
    """One client's request pool, expected answers and fresh-key stream."""

    def __init__(self, keys: np.ndarray, hot: np.ndarray, seed: int, client: int,
                 insert_frac: float, seconds: float) -> None:
        rng = np.random.default_rng([seed, 2, client])
        size = WINDOW * POOL_WINDOWS
        ranks = rng.zipf(ZIPF_A, size)
        rows = hot[np.minimum(ranks - 1, keys.size - 1)]
        self.pool = [Request(op=Op.LOOKUP, key=float(k)) for k in keys[rows]]
        # Build-time values are global ranks; keys are sorted, so rank == row.
        self.expected = [int(r) for r in rows]
        self.insert_slots: list[list[int]] = [[] for _ in range(POOL_WINDOWS)]
        if insert_frac > 0:
            for pos in np.flatnonzero(rng.random(size) < insert_frac):
                self.insert_slots[pos // WINDOW].append(int(pos % WINDOW))
            # Warm-up plus up to two measured phases, at a rate no client reaches.
            budget = int(MAX_CLIENT_RATE * 3 * seconds * insert_frac) + WINDOW
            self.fresh = _fresh_keys(keys, budget, rng)
        else:
            self.fresh = np.empty(0)
        self.value_base = -(client + 1) * 10**9
        self.next_fresh = 0
        self.cursor = 0
        self.acked: list[tuple[float, int]] = []

    def window(self) -> tuple[list[Request], list[object], list[tuple[float, int]]]:
        """Next window: requests, expected results, inserts it carries."""
        w = self.cursor % POOL_WINDOWS
        self.cursor += 1
        base = w * WINDOW
        reqs = self.pool[base:base + WINDOW]
        expected = self.expected[base:base + WINDOW]
        slots = self.insert_slots[w]
        if not slots:
            return reqs, expected, []
        inserts = []
        for j in slots:
            if self.next_fresh >= self.fresh.size:
                raise RuntimeError("fresh-key stream exhausted; raise MAX_CLIENT_RATE")
            key = float(self.fresh[self.next_fresh])
            value = self.value_base - self.next_fresh
            self.next_fresh += 1
            reqs[j] = Request(op=Op.INSERT, key=key, value=value)
            expected[j] = None
            inserts.append((key, value))
        return reqs, expected, inserts


def _fresh_keys(keys: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct keys strictly between two build keys, in random order."""
    gaps = rng.integers(0, keys.size - 1, count * 2)
    frac = rng.uniform(0.05, 0.95, gaps.size)
    cand = keys[gaps] + (keys[gaps + 1] - keys[gaps]) * frac
    cand = cand[(cand > keys[gaps]) & (cand < keys[gaps + 1])]
    cand, first = np.unique(cand, return_index=True)
    cand = cand[np.argsort(first)]
    if cand.size < count:
        raise RuntimeError("could not draw enough fresh keys")
    return cand[:count]


class OneDimWorkload:
    """Zipf point lookups (plus optional fresh-key inserts) from 2 pipelined clients."""

    def __init__(self, seed: int, seconds: float, clock: StealFreeClock, index_cls: type,
                 cache_size: int = 0, insert_frac: float = 0.0) -> None:
        self.clock = clock
        self.keys = load_1d("osm", KEYS_1D, seed=CORPUS_SEED)
        self.index_cls = index_cls
        self.server_kwargs = {"cache_size": cache_size} if cache_size else {}
        hot = np.random.default_rng([CORPUS_SEED, 1]).permutation(self.keys.size)
        self.clients = [
            _Client1D(self.keys, hot, seed, c, insert_frac, seconds)
            for c in range(CLIENTS)
        ]

    @property
    def data(self) -> np.ndarray:
        return self.keys

    def drive(self, server: IndexServer, seconds: float, tracer=None,
              warmup: bool = False) -> Phase:
        """Both clients send windows until ``seconds`` have passed.

        This thread marks a segment boundary about every ``SEGMENT_S``.
        """
        phases = [Phase() for _ in self.clients]
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(self.clients) + 1)
        ends = [0.0] * len(self.clients)

        def run(c: int) -> None:
            client, phase = self.clients[c], phases[c]
            try:
                barrier.wait()
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    reqs, expected, inserts = client.window()
                    phase.attempted += len(reqs)
                    t0 = time.perf_counter()
                    try:
                        out = server.serve_window(reqs)
                    except Exception:  # counted; a bad window must not stop the run
                        out = None
                    t1 = time.perf_counter()
                    if tracer is not None:
                        tracer.client_done()
                    if out is None:
                        phase.errored += len(reqs)
                        continue
                    phase.add("read", t1 - t0, len(reqs) - len(inserts), t1)
                    if inserts:
                        phase.add("write", t1 - t0, len(inserts), t1)
                    if out != expected:
                        _tally(phase, out, expected)
                    for j, (key, value) in zip(
                            (j for j, e in enumerate(expected) if e is None), inserts):
                        if not isinstance(out[j], Overloaded):
                            client.acked.append((key, value))
                ends[c] = time.perf_counter()
            except BaseException as exc:  # re-raised after join
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(c,), name=f"bench-client-{c}")
                   for c in range(len(self.clients))]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        cpu0 = time.process_time()
        marks = [(start, self.clock())]
        segments = max(1, round(seconds / SEGMENT_S))
        for k in range(1, segments + 1):
            time.sleep(max(0.0, start + k * seconds / segments - time.perf_counter()))
            marks.append((time.perf_counter(), self.clock()))
        for t in threads:
            t.join()
        cpu1 = time.process_time()
        if errors:
            raise errors[0]
        total = Phase(marks=marks)
        for phase in phases:
            total.merge(phase)
        total.cpu_s = cpu1 - cpu0
        total.wall_s = max(ends) - start
        return total

    def check_writes(self, server: IndexServer) -> tuple[int, int]:
        """Read back every acknowledged insert; returns (checked, lost)."""
        acked = [a for client in self.clients for a in client.acked]
        lost = 0
        for i in range(0, len(acked), WINDOW):
            chunk = acked[i:i + WINDOW]
            out = server.serve_window([Request(op=Op.LOOKUP, key=k) for k, _ in chunk])
            lost += sum(1 for (_, v), got in zip(chunk, out) if got != v)
        return len(acked), lost

    def check_results(self) -> int:
        """Reads are checked as they arrive; nothing is left to check."""
        return 0


def _tally(phase: Phase, out: list[object], expected: list[object]) -> None:
    for got, want in zip(out, expected):
        if isinstance(got, Overloaded):
            phase.shed += 1
        elif got != want:
            phase.wrong += 1


# -- spatial workload ---------------------------------------------------------
class SpatialWorkload:
    """One synchronous client mixing point, range and kNN queries on Flood."""

    def __init__(self, seed: int, clock: StealFreeClock) -> None:
        self.seed = seed
        self.clock = clock
        self.points = load_nd("clusters", POINTS_2D, dims=2, seed=CORPUS_SEED)
        self.index_cls = FloodIndex
        self.server_kwargs = {"num_shards": SPATIAL_SHARDS}
        extent = self.points.max(axis=0) - self.points.min(axis=0)
        self.side = extent * RANGE_SELECTIVITY ** (1.0 / self.points.shape[1])
        # kNN probes are a fixed set, like the corpus: a run makes only a
        # handful of kNN queries whose costs differ several-fold with the
        # probe's position, so seeded probes would make the cross-seed
        # spread of throughput measure which probes were drawn.
        probe_rng = np.random.default_rng([CORPUS_SEED, 4])
        self.knn_probes = (
            self.points[probe_rng.integers(0, self.points.shape[0], KNN_PROBES)]
            + probe_rng.normal(0, extent * 0.01, (KNN_PROBES, self.points.shape[1]))
        )
        self.block = 0
        self.knn_made = 0
        self.results: list[tuple[str, object, object]] = []

    @property
    def data(self) -> np.ndarray:
        return self.points

    def _next_block(self, with_knn: bool) -> list[tuple[str, object]]:
        rng = np.random.default_rng([self.seed, 3, self.block])
        self.block += 1
        rows = rng.integers(0, self.points.shape[0], SPATIAL_BLOCK)
        is_range = rng.permutation(SPATIAL_BLOCK) < SPATIAL_RANGES
        ops: list[tuple[str, object]] = []
        for r, ranged in zip(rows, is_range):
            p = self.points[r]
            if ranged:
                ops.append(("range", (tuple(p - self.side / 2), tuple(p + self.side / 2))))
            else:
                ops.append(("point", (tuple(float(x) for x in p), int(r))))
        if with_knn:
            q = self.knn_probes[self.knn_made % KNN_PROBES]
            self.knn_made += 1
            ops[int(rng.integers(0, SPATIAL_BLOCK))] = ("knn", tuple(float(x) for x in q))
        return ops

    def drive(self, server: IndexServer, seconds: float, tracer=None,
              warmup: bool = False) -> Phase:
        """Run ``round(seconds / SPATIAL_BLOCK_S)`` whole blocks.

        Every measured phase sends the same kNN probes, in the same
        order, one per ``SPATIAL_BLOCK`` ops; so the untraced and traced
        phases of a run do too.  Warm-up blocks carry no kNN, which
        would dominate them, and run until ``seconds`` have passed.
        Each block is one segment.
        """
        self.knn_made = 0
        blocks = max(1, round(seconds / SPATIAL_BLOCK_S))
        start = time.perf_counter()
        cpu0 = time.process_time()
        phase = Phase(marks=[(start, self.clock())])
        done = 0
        while (time.perf_counter() - start < seconds if warmup else
               done < blocks and time.perf_counter() - start < SPATIAL_TIME_CAP * seconds):
            done += 1
            for kind, args in self._next_block(with_knn=not warmup):
                phase.attempted += 1
                t0 = time.perf_counter()
                failed = False
                try:
                    if kind == "point":
                        got = server.point_query(args[0])
                    elif kind == "range":
                        got = server.range_query(*args)
                    else:
                        got = server.knn_query(args, KNN_K)
                except Exception:  # counted; a failed call must not stop the run
                    failed = True
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.client_done()
                if failed:
                    phase.errored += 1
                    continue
                phase.add(kind, t1 - t0, 1, t1)
                if kind == "point":
                    phase.wrong += got != args[1]
                else:
                    self.results.append((kind, args, got))
            phase.marks.append((time.perf_counter(), self.clock()))
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = time.process_time() - cpu0
        return phase

    def check_results(self) -> int:
        """Brute-force oracle for every range and kNN answer; returns wrong count."""
        pts = self.points
        wrong = 0
        for kind, args, got in self.results:
            if kind == "range":
                lo, hi = np.asarray(args[0]), np.asarray(args[1])
                want = np.flatnonzero(np.all((pts >= lo) & (pts <= hi), axis=1))
                vals = np.sort(np.asarray([v for _, v in got], dtype=np.int64))
                ok = np.array_equal(vals, want) and all(
                    tuple(pts[v]) == p for p, v in got)
            else:
                q = np.asarray(args)
                want = np.sort(np.linalg.norm(pts - q, axis=1))[:KNN_K]
                dist = np.sort([np.linalg.norm(np.asarray(p) - q) for p, _ in got])
                ok = len(got) == KNN_K and np.allclose(dist, want, rtol=1e-9, atol=1e-9)
            wrong += not ok
        self.results.clear()
        return wrong

    def check_writes(self, server: IndexServer) -> tuple[int, int]:
        return 0, 0


def make_workload(name: str, seed: int, seconds: float, clock: StealFreeClock):
    """The named workload's inputs for ``seed``, sized for runs of ``seconds``."""
    if name == "lookup-1d":
        return OneDimWorkload(seed, seconds, clock, PGMIndex)
    if name == "cached-1d":
        return OneDimWorkload(seed, seconds, clock, ALEXIndex,
                              cache_size=CACHE_SIZE, insert_frac=INSERT_FRAC)
    if name == "spatial-2d":
        return SpatialWorkload(seed, clock)
    raise SystemExit(f"unknown workload {name!r}; have lookup-1d, cached-1d, spatial-2d")
