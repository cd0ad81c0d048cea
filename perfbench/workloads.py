"""The benchmark's workloads and the measurements taken on them.

Every run is one process driving one closed-loop client: a single thread
sends the next operation only after the previous one returned.  Library
workloads call the package in this process; ``cli-cold`` starts one
``fsindex`` process per operation.  Range queries run at each query's own
100-NN radius, found by the exhaustive reference before timing starts.

An untraced run reports the end-to-end metrics.  A traced run makes an
untraced pass over the operations, replays the same operations with spans
around each call into a module, and reports the per-module metrics plus
the tracing overhead between the two passes.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import fsindex as fx
import inputs
from reference import Reference, knn_mismatch, range_mismatch
from spans import Spans, mean_p50

M = 9
MATRIX = "BLOSUM62"
PARTITION = "TSAN,ILVM,KR,DEQ,WFYH,GPC"
NN = 100          # range radius: the query's 100-NN value; k of the k-NN probes
CLI_K = 10        # k of the cli-cold k-NN searches
SETUP_REPS = 3    # set-ups per run; setup_s is their median
WARMUP_S = 1.0    # untimed operations before the timed phase
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
RATIO_PROBES = 2  # k-NN probes per traced run
CLI_PROBES = 2    # CLI processes replayed in-process per traced run
IMPORT_PROBES = 3
MIN_LEN, MAX_LEN = 6, 12  # suffix-mixed query lengths


@dataclass(frozen=True)
class Plan:
    """A library workload: which index, which queries, how many."""

    suffix_mode: bool
    block: int     # queries per operation
    pool: int      # distinct queries per run; operations cycle through them
    counted: int   # leading operations always run; their counters are reported


# suffix-mixed runs one query of each length per operation: the median of
# single queries would be the median of whichever length straddles it,
# about a seventh of the samples, and moved by a fifth from seed to seed.
PLANS = {
    "range-100nn": Plan(suffix_mode=False, block=1, pool=900, counted=200),
    "suffix-mixed": Plan(suffix_mode=True, block=MAX_LEN - MIN_LEN + 1, pool=280, counted=6),
}
CLI_POOL, CLI_COUNTED = 60, 4
WORKLOADS = tuple(PLANS) + ("cli-cold",)


@dataclass
class Op:
    index: int
    latency: float
    out: object = None    # what the operation returned
    error: str | None = None


@dataclass
class Search:
    """One search call on pool query ``j``."""

    j: int
    q: object      # the normalized query
    hits: object
    stats: object


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    spans: Spans | None = None  # traced runs only


class Env:
    """Program location, scratch directory, the query function inputs and
    the alphabet partition (coarser in the self-test's tiny corpus, where
    the benchmark partition leaves almost every bin empty)."""

    def __init__(self, root, work, partition: str = PARTITION):
        self.root = root
        self.work = work
        self.partition = partition
        self.matrix = fx.load_builtin_matrix(MATRIX)
        self.dist = fx.distance_from_score(self.matrix)
        self.scheme = fx.parse_partition(partition, self.matrix.alphabet, M)
        self.letters = self.matrix.alphabet.letters
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def reference(self, corpus, suffix_mode: bool, width: int) -> Reference:
        return Reference(corpus.sequences, self.letters, self.dist.values, M, suffix_mode, width)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


class Pool:
    """A run's distinct queries with their reference answers."""

    def __init__(self, env: Env, reference: Reference, queries: list[str]):
        self.reference = reference
        self.queries = queries
        self.codes = [np.array([env.letters.index(c) for c in t]) for t in queries]
        self.answers = [reference.answer(c, NN) for c in self.codes]

    def __len__(self) -> int:
        return len(self.queries)

    def mismatch(self, j: int, mode: str, value: int, rows) -> str | None:
        if mode == "k":
            return knn_mismatch(self.reference, self.codes[j], value, rows, self.answers[j])
        return range_mismatch(rows, self.answers[j])


# -- measurement helpers ------------------------------------------------------


def _run_ops(run_op, seconds: float, at_least: int,
             spans: Spans | None = None) -> tuple[list[Op], float]:
    """Closed loop over operations 0, 1, ... until ``seconds`` pass and at
    least ``at_least`` ran; with ``spans``, each runs inside an "op" span."""
    ops: list[Op] = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(ops) < at_least or time.perf_counter() < deadline:
        i = len(ops)
        t0 = time.perf_counter()
        try:
            if spans is None:
                out = run_op(i)
            else:
                with spans.span("op", i):
                    out = run_op(i)
            ops.append(Op(i, time.perf_counter() - t0, out))
        except Exception:  # a failed operation is counted, not fatal
            ops.append(Op(i, time.perf_counter() - t0, error=traceback.format_exc()))
    return ops, time.perf_counter() - start


def _tally(result: Result, ops: list[Op], check) -> None:
    """Count operations and failures; ``check(op)`` returns a mismatch or None."""
    for op in ops:
        result.attempted += 1
        problem = op.error or check(op)
        if problem:
            result.failed += 1
            result.errors.append(f"op {op.index}: {problem}")


def _end_to_end(result: Result, setup_s, ops: list[Op], elapsed: float,
                peak_rss_mb: float, index_bytes: int) -> None:
    lat = sorted(1e3 * op.latency for op in ops)
    # the highest percentile with TAIL_BEYOND samples above it; the maximum
    # when the run is too short to have one
    at = len(lat) - TAIL_BEYOND - 1 if len(lat) > TAIL_BEYOND else len(lat) - 1
    result.metrics.update({
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[at],
        "throughput_ops": len(ops) / elapsed,
        "peak_rss_mb": peak_rss_mb,
        "index_bytes": index_bytes,
    })
    result.notes["setup_s"] = list(setup_s)
    result.notes["latencies_ms"] = [1e3 * op.latency for op in ops]
    result.notes["tail"] = {
        "percentile": 100.0 * (at + 1) / len(lat),
        "samples_beyond": len(lat) - at - 1,
        "samples": len(lat),
    }


def _summaries(metrics: dict, name: str, values) -> None:
    metrics[f"{name}.mean"], metrics[f"{name}.p50"] = mean_p50(values)


def _counter_metrics(metrics: dict, index, searches: list[Search]) -> None:
    """Per-search counters; residue fractions are over the query's length."""
    def frags(st):
        return max(st.fragments_scanned, 1)

    for name, f in {
        "nodes_visited": lambda st, _: st.nodes_visited,
        "bins_scanned": lambda st, _: st.bins_scanned,
        "fragments_scanned": lambda st, _: st.fragments_scanned,
        "residues_scanned": lambda st, _: st.residues_scanned,
        "hits": lambda st, _: st.hits,
        "bins_per_node": lambda st, _: st.bins_scanned / st.nodes_visited,
        "fragment_fraction": lambda st, _: st.fragments_scanned / index.n,
        "residue_fraction": lambda st, length: st.residues_scanned / (frags(st) * length),
        "hits_per_fragment": lambda st, _: st.hits / frags(st),
    }.items():
        _summaries(metrics, "search." + name, [f(s.stats, s.q.m) for s in searches])


def _span_metrics(metrics: dict, spans: Spans, ops_a: list[Op], ops_b: list[Op]) -> None:
    for module in ("ingest.parse_fasta", "ingest.extract_fragments", "core.build",
                   "core.save", "core.load", "query.prepare",
                   "query.lower_bound_table", "search.call"):
        _summaries(metrics, module + "_ms", spans.durations_ms(module))
    _summaries(metrics, "trace.op_self_ms", spans.self_ms("op"))
    untraced = sum(op.latency for op in ops_a[:len(ops_b)])
    metrics["trace.overhead_pct"] = 100.0 * (sum(op.latency for op in ops_b) / untraced - 1)


def _index_metrics(metrics: dict, index) -> None:
    metrics["core.resident_bytes"] = sum(
        v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray)
    )
    metrics["core.bin_offsets_bytes"] = index.bins.nbytes


def _searches(ops: list[Op]) -> list[Search]:
    return [s for op in ops if op.error is None for s in op.out]


def _lower_bound_probes(spans: Spans, index, ops: list[Op]) -> None:
    """A separate ``lower_bound_table`` call per search, in its own span."""
    for op in ops:
        for s in op.out or ():
            with spans.span("query.lower_bound_table", op.index):
                fx.lower_bound_table(s.q, index.scheme, depth=min(s.q.m, index.m))


def _ratio_probes(env: Env, index, pool: Pool) -> list[float]:
    """k-NN (k=NN) bins scanned over range-search bins at the k-NN radius,
    for the pool's first length-M queries."""
    ratios = []
    for text in [t for t in pool.queries if len(t) == M][:RATIO_PROBES]:
        q = fx.normalize(fx.distance_query(env.dist, text))
        knn_hits, knn_stats = fx.knn_search(index, q, NN)
        _, rng_stats = fx.range_search(index, q, max(knn_hits.values()))
        ratios.append(knn_stats.bins_scanned / rng_stats.bins_scanned)
    return ratios


def _child(env: Env, args: list[str], stdout_name: str):
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(env.path(stdout_name), "wb") as out, open(env.path("child.err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env.child_env, cwd=env.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def _import_probes(env: Env) -> list[float]:
    """Milliseconds to import ``fsindex.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import fsindex.cli; "
            "print(1e3 * (time.perf_counter() - t))")
    out = []
    for _ in range(IMPORT_PROBES):
        _, _, rc = _child(env, ["-c", code], "import.out")
        if rc != 0:
            raise RuntimeError("importing fsindex.cli failed")
        with open(env.path("import.out")) as fh:
            out.append(float(fh.read()))
    return out


# -- searches and their checks -------------------------------------------------


def _range_call(index, q, radius):
    if q.m == index.m:
        return fx.range_search(index, q, radius)
    if q.m > index.m:
        return fx.long_query_search(index, q, radius)
    return fx.short_query_search(index, q, radius)


def _search(env: Env, spans: Spans, op: int, index, pool: Pool, j: int,
            mode: str, value: int) -> Search:
    """Prepare pool query ``j`` and run it: k-NN with k=``value``, or range
    at radius ``value`` in the query's original units."""
    with spans.span("query.prepare", op):
        q = fx.normalize(fx.distance_query(env.dist, pool.queries[j]))
    with spans.span("search.call", op):
        if mode == "k":
            hits, stats = fx.knn_search(index, q, value)
        else:
            hits, stats = _range_call(index, q, value - q.shift)
    return Search(j, q, hits, stats)


def _search_checker(pool: Pool, mode_of):
    def check(op: Op) -> str | None:
        for s in op.out:
            rows = [(ref.seq_id, ref.offset, v + s.q.shift) for ref, v in s.hits]
            problem = pool.mismatch(s.j, *mode_of(s.j), rows)
            if problem:
                return problem
        return None
    return check


def _cli_checker(pool: Pool, mode_of, corpus):
    """Check CLI output rows; they name sequences by identifier."""
    seq_ids = {name: i for i, name in enumerate(corpus.identifiers)}

    def check(op: Op) -> str | None:
        for j, rows in op.out:
            rows = [(seq_ids.get(name, -1), off, val) for name, off, val in rows]
            problem = pool.mismatch(j, *mode_of(j), rows)
            if problem:
                return problem
        return None
    return check


def _write_fasta(env: Env, corpus) -> str:
    path = env.path("corpus.fa")
    with open(path, "w") as fh:
        fh.write(corpus.fasta)
    return path


def _cli_search(env: Env, fasta: str, index_path: str, pool: Pool, j: int,
                mode: str, value: int):
    """One ``fsindex search`` process; returns (wall, rss, (j, rows))."""
    wall, rss, rc = _child(env, [
        "-m", "fsindex.cli", "search", "--index", index_path, "--fasta", fasta,
        "--matrix", MATRIX, "--query", pool.queries[j], f"--{mode}", str(value),
        "--format", "json", "--out", env.path("search.json"),
    ], "search.out")
    if rc != 0:
        with open(env.path("child.err")) as fh:
            raise RuntimeError(f"fsindex search exited {rc}: {fh.read().strip()}")
    with open(env.path("search.json")) as fh:
        report = json.load(fh)
    return wall, rss, (j, [(h["sequence"], h["offset"], h["value"]) for h in report["hits"]])


def _replay(env: Env, spans: Spans, op: int, fasta: str, index_path: str, pool: Pool,
            j: int, mode: str, value: int) -> Search:
    """In-process replay of one CLI search: parse, load, prepare, search."""
    with spans.span("ingest.parse_fasta", op):
        with open(fasta) as fh:
            db = fx.parse_fasta(fh)
    with spans.span("core.load", op):
        index = fx.load(index_path, db)
    return _search(env, spans, op, index, pool, j, mode, value)


# -- library workloads ------------------------------------------------------------


def run_library(name: str, corpus, env: Env, seed: int, seconds: float, trace: bool) -> Result:
    plan = PLANS[name]
    spans = Spans(enabled=trace)
    result = Result()
    setup_s = []
    index = None
    for _ in range(SETUP_REPS):
        index = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        with spans.span("setup"):
            with spans.span("ingest.parse_fasta"):
                db = fx.parse_fasta(corpus.fasta)
            with spans.span("ingest.extract_fragments"):
                dataset = fx.extract_fragments(db, M, suffix_mode=plan.suffix_mode)
            with spans.span("core.build"):
                index = fx.build(dataset, env.scheme)
        setup_s.append(time.perf_counter() - t0)
        del db, dataset
    # read before any query: query transients follow the query draw (on
    # suffix-mixed they moved the high-water by a quarter from seed to seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pinned = corpus.suffix_fragments if plan.suffix_mode else corpus.fixed_fragments
    reference = env.reference(corpus, plan.suffix_mode, MAX_LEN if plan.suffix_mode else M)
    if pinned is not None and index.n != pinned:
        raise RuntimeError(f"index holds {index.n} fragments, pinned {pinned}")
    if reference.n != index.n:
        raise RuntimeError(f"index holds {index.n} fragments, reference {reference.n}")

    if plan.suffix_mode:
        queries = inputs.mixed_length_queries(seed, plan.pool, MIN_LEN, MAX_LEN)
    else:
        queries = inputs.fixed_queries(seed, plan.pool, M)
    pool = Pool(env, reference, queries)

    def mode_of(j: int):
        return ("radius", pool.answers[j].radius)

    def run_op(i: int) -> list[Search]:
        js = [(i * plan.block + t) % len(pool) for t in range(plan.block)]
        return [_search(env, spans, i, index, pool, j, *mode_of(j)) for j in js]

    check = _search_checker(pool, mode_of)
    spans.enabled = False
    _run_ops(run_op, WARMUP_S, 1)
    if not trace:
        ops, elapsed = _run_ops(run_op, seconds, plan.counted)
        _tally(result, ops, check)
        index_bytes = index.save(env.path("index.fsi"))
        os.remove(env.path("index.fsi"))
        _end_to_end(result, setup_s, ops, elapsed, peak_rss_mb, index_bytes)
        return result

    ops_a, _ = _run_ops(run_op, seconds / 2, plan.counted)
    spans.enabled = True
    ops_b, _ = _run_ops(run_op, 0, len(ops_a), spans)
    _lower_bound_probes(spans, index, ops_b)
    _tally(result, ops_a + ops_b, check)
    m = result.metrics
    _counter_metrics(m, index, _searches(ops_a[:plan.counted]))
    _summaries(m, "search.knn_range_bin_ratio", _ratio_probes(env, index, pool))
    _index_metrics(m, index)

    # the CLI path on this workload's index: its file, CLI processes and replays
    fasta = _write_fasta(env, corpus)
    index_path = env.path("index.fsi")
    with spans.span("core.save"):
        index.save(index_path)
    index = None
    cli_ops, replays = [], []
    for j in range(CLI_PROBES):
        wall, _, out = _cli_search(env, fasta, index_path, pool, j, *mode_of(j))
        cli_ops.append(Op(j, wall, [out]))
    for j in range(CLI_PROBES):
        t0 = time.perf_counter()
        with spans.span("cli.replay", j):
            search = _replay(env, spans, j, fasta, index_path, pool, j, *mode_of(j))
        replays.append(Op(j, time.perf_counter() - t0, [search]))
    os.remove(index_path)
    _tally(result, cli_ops, _cli_checker(pool, mode_of, corpus))
    _tally(result, replays, check)
    _summaries(m, "cli.residual_ms", [
        1e3 * (a.latency - b.latency) for a, b in zip(cli_ops, replays)
    ])
    _summaries(m, "cli.import_ms", _import_probes(env))
    _span_metrics(m, spans, ops_a, ops_b)
    result.spans = spans
    return result


# -- cli-cold ---------------------------------------------------------------------------


def run_cli(corpus, env: Env, seed: int, seconds: float, trace: bool) -> Result:
    spans = Spans(enabled=trace)
    result = Result()
    fasta = _write_fasta(env, corpus)
    index_path = env.path("index.fsi")
    setup_s, rss = [], []  # rss: peak of each search process, in MB
    for _ in range(SETUP_REPS):
        wall, _, rc = _child(env, [
            "-m", "fsindex.cli", "build", "--fasta", fasta, "--matrix", MATRIX,
            "--partition", env.partition, "-m", str(M), "--out", index_path,
        ], "build.json")
        if rc != 0:
            with open(env.path("child.err")) as fh:
                raise RuntimeError(f"fsindex build exited {rc}: {fh.read().strip()}")
        setup_s.append(wall)
    with open(env.path("build.json")) as fh:
        fragments = json.load(fh)["fragments"]
    if corpus.fixed_fragments is not None and fragments != corpus.fixed_fragments:
        raise RuntimeError(f"index holds {fragments} fragments, pinned {corpus.fixed_fragments}")
    index_bytes = os.path.getsize(index_path)

    pool = Pool(env, env.reference(corpus, False, M), inputs.fixed_queries(seed, CLI_POOL, M))

    def mode_of(j: int):  # CLI_POOL is even, so operations alternate modes
        return ("k", CLI_K) if j % 2 == 0 else ("radius", pool.answers[j].radius)

    def run_op(i: int):
        j = i % CLI_POOL
        _, peak, out = _cli_search(env, fasta, index_path, pool, j, *mode_of(j))
        rss.append(peak)
        return [out]

    check = _cli_checker(pool, mode_of, corpus)
    _run_ops(run_op, WARMUP_S, 1)  # also brings the index file into the page cache
    if not trace:
        ops, elapsed = _run_ops(run_op, seconds, CLI_COUNTED)
        _tally(result, ops, check)
        _end_to_end(result, setup_s, ops, elapsed, max(rss), index_bytes)
        return result

    ops_a, _ = _run_ops(run_op, seconds / 2, CLI_COUNTED)
    _tally(result, ops_a, check)
    m = result.metrics
    # in-process replays of the build and of the first searches
    with spans.span("setup"):
        with spans.span("ingest.parse_fasta"):
            db = fx.parse_fasta(corpus.fasta)
        with spans.span("ingest.extract_fragments"):
            dataset = fx.extract_fragments(db, M)
        with spans.span("core.build"):
            built = fx.build(dataset, env.scheme)
        with spans.span("core.save"):
            built.save(env.path("replay.fsi"))
    del db, dataset, built
    os.remove(env.path("replay.fsi"))

    def replay(i: int) -> list[Search]:
        j = i % CLI_POOL
        return [_replay(env, spans, i, fasta, index_path, pool, j, *mode_of(j))]

    spans.enabled = False
    replay_a, _ = _run_ops(replay, 0, CLI_COUNTED)
    spans.enabled = True
    replay_b, _ = _run_ops(replay, 0, CLI_COUNTED, spans)
    _tally(result, replay_a + replay_b, _search_checker(pool, mode_of))
    with open(fasta) as fh:
        index = fx.load(index_path, fx.parse_fasta(fh))
    _lower_bound_probes(spans, index, replay_b)
    _counter_metrics(m, index, _searches(replay_b))
    _summaries(m, "search.knn_range_bin_ratio", _ratio_probes(env, index, pool))
    _index_metrics(m, index)
    _summaries(m, "cli.residual_ms", [
        1e3 * (a.latency - b.latency) for a, b in zip(ops_a, replay_b)
    ])
    _summaries(m, "cli.import_ms", _import_probes(env))
    _span_metrics(m, spans, replay_a, replay_b)
    result.spans = spans
    return result
