"""The four benchmark workloads.

Each workload is a closed loop driven by one client thread: it sends
its next operation only after the previous one returned.  Every timed
section wraps one call into a public function of the program; inputs
are built and answers are checked outside the timed sections, so
``busy`` (the measured time) holds program work only.  A run repeats
whole rounds until ``busy`` reaches ``--seconds`` (``build`` runs at
least two, ``session-replay`` a fixed number; see their notes).

With tracing on, a workload sets up once with the tracer's wrappers in
place, runs its traced phase, then replays the same rounds untraced on
fresh state, so the trace overhead is traced minus untraced time per
operation on identical inputs.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
from inputs import ZipfDraws
from tracing import Tracer, percentile

#: Set-ups per untraced run; set-up time is their median.
SETUPS = 3
BATCH = 256
#: Passes over the 1,024 probes of each loaded index in ``build``: many
#: short probe bursts would each catch the CPU at one instant.
PROBE_PASSES = 32
#: session-replay runs a fixed number of rounds per second of
#: ``--seconds`` (about that many seconds here).  A time-boxed run would
#: let a faster machine reach the phase where the store stops growing,
#: and batches stop flushing, sooner, which amplifies CPU drift.
REPLAY_ROUNDS_PER_SECOND = 100
HTTP_ROUND = 50
#: Samples per p99 window.  The reported p99 is the median of the p99s
#: of consecutive windows of at least this many samples, so a burst of
#: interference from other tenants of the host moves one window and not
#: the run's figure.  A run with fewer samples has one window.
P99_WINDOW = 1_000
#: Fixed malformed ``/query`` bodies (independent of the seed).  Each
#: must be refused with 400; the server coerces them with ``int()``.
MALFORMED = (
    {"source": 1.9, "target": "2", "labels": [0.5]},
    {"source": "3", "target": 4.7, "labels": ["1"]},
)


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.layers: Dict[str, float] = {}
        self.workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)

    def wrong(self, message: str, *, operation: bool = True) -> None:
        """Record a wrong answer (a failed operation) or a broken property."""
        self.failed += operation
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = f"... and more ({message})"

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


#: The child of :func:`in_child`: it reads ``(module, function, args)``
#: pickled on stdin and writes the pickled result on stdout.  Anything
#: the function prints goes to stderr.
CHILD = (
    "import importlib, pickle, sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "out, sys.stdout = sys.stdout, sys.stderr\n"
    "module, name, args = pickle.load(sys.stdin.buffer)\n"
    "result = getattr(importlib.import_module(module), name)(*args)\n"
    "pickle.dump(result, out.buffer)\n"
)


def in_child(function, *args):
    """Run oracle work in a child process and return its result.

    Its memory then never shows in this process's peak RSS, and its
    time never in a measured section.  The child is a plain interpreter
    that this call waits for, so no helper process outlives the run.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, here],
        input=pickle.dumps((function.__module__, function.__name__, args)),
        stdout=subprocess.PIPE,
        check=True,
    )
    return pickle.loads(completed.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50_us(samples_ns: Sequence[int]) -> float:
    return statistics.median(samples_ns) / 1e3


def p99_us(samples_ns: Sequence[int]) -> float:
    """Median over consecutive windows of ``P99_WINDOW`` samples of their p99."""
    windows = max(1, len(samples_ns) // P99_WINDOW)
    size = len(samples_ns) // windows
    bounds = [i * size for i in range(windows)] + [len(samples_ns)]
    return statistics.median(
        percentile(samples_ns[start:end], 0.99) for start, end in zip(bounds, bounds[1:])
    ) / 1e3


def overhead_pct(traced: Tuple[int, float], untraced: Tuple[int, float]) -> float:
    """Traced minus untraced time per operation, as a share of untraced."""
    (traced_ops, traced_busy), (plain_ops, plain_busy) = traced, untraced
    return 100.0 * ((traced_busy / traced_ops) / (plain_busy / plain_ops) - 1.0)


def index_layers(run: Run, index) -> None:
    """Builder counters and index size of one built index, summed in."""
    layers = run.layers
    stats = index.build_stats
    for field in (
        "kernel_searches",
        "kernel_bfs_runs",
        "insert_attempts",
        "inserted",
        "pruned_pr1",
        "pruned_pr2",
        "pr3_stops",
    ):
        layers[f"builder.{field}"] = layers.get(f"builder.{field}", 0) + getattr(stats, field)
    layers["builder.build_s"] = layers.get("builder.build_s", 0.0) + stats.seconds
    layers["builder.insert_yield"] = layers["builder.inserted"] / layers["builder.insert_attempts"]
    layers["index.entries"] = layers.get("index.entries", 0) + index.num_entries
    layers["index.estimated_size_bytes"] = (
        layers.get("index.estimated_size_bytes", 0) + index.estimated_size_bytes()
    )


def span_layers(run: Run, mapping: Dict[str, Tuple[str, str]]) -> None:
    """Copy span statistics into per-layer metrics.

    ``mapping`` is ``metric -> (span name, statistic)`` where the
    statistic is ``p50_us``, ``per_item_p50_us`` or ``p50_s``.
    """
    table = run.tracer.summary()
    for metric, (span, stat) in mapping.items():
        row = table.get(span)
        if row is None:
            continue
        if stat == "p50_s":
            run.layers[metric] = row["p50_us"] / 1e6
        else:
            run.layers[metric] = row[stat]


def trace_graph_loading(run: Run) -> None:
    """Span ``repro.graph.datasets.load_dataset`` for every caller."""
    from repro.graph import datasets

    run.tracer.wrap(datasets, "load_dataset", "graph.load_dataset")


# ----------------------------------------------------------------------
# build: the write path (Table IV)
# ----------------------------------------------------------------------


def workload_build(run: Run) -> Dict[str, float]:
    from repro.core.index import RlcIndex
    from repro.engine.registry import create_engine
    from repro.graph import datasets

    names = ("EP", "WS")
    tracer = run.tracer
    if tracer:
        trace_graph_loading(run)
    setups = []
    for _ in range(1 if tracer else SETUPS):
        started = perf_counter()
        graphs = {name: datasets.load_dataset(name) for name in names}
        setups.append(perf_counter() - started)

    probes = in_child(
        inputs.build_inputs,
        {name: (graph.num_vertices, list(graph.edges())) for name, graph in graphs.items()},
        run.seed,
    )
    index_path = os.path.join(run.workdir, "index.npz")
    build_s: List[float] = []
    load_s: List[float] = []
    query_ns = array("q")
    sizes: Dict[str, int] = {}

    def lifecycle(traced: bool) -> float:
        """One operation: build, save, load and probe both graphs."""
        busy = 0.0
        op_build = op_load = 0.0
        if traced:  # builder and index figures describe one operation
            for key in [key for key in run.layers if key.startswith(("builder.", "index."))]:
                del run.layers[key]
        for name in names:
            graph = graphs[name]
            started = perf_counter_ns()
            engine = create_engine("rlc-index", graph, k=2)
            built = perf_counter_ns()
            index = engine.backend
            index.save(index_path)
            saved = perf_counter_ns()
            loaded = RlcIndex.load(index_path)
            done = perf_counter_ns()
            if traced:
                tracer.span("engine.create_rlc_index", started, built)
                tracer.span("index.save", built, saved)
                tracer.span("index.load", saved, done)
                tracer.wrap(loaded, "query", "index.query")
            busy += (done - started) / 1e9
            op_build += (built - started) / 1e9
            op_load += (done - saved) / 1e9
            answers = []
            gc.collect()  # keep collector pauses of the build out of the probes
            for _ in range(PROBE_PASSES):
                for (source, target, labels), _ in probes[name]:
                    started = perf_counter_ns()
                    answer = loaded.query(source, target, labels)
                    ended = perf_counter_ns()
                    answers.append(answer)
                    query_ns.append(ended - started)
                    busy += (ended - started) / 1e9
            # Checks, outside the timed sections.
            violations = index.condensedness_violations()
            if violations:
                run.wrong(f"{name}: condensedness violations {violations[:3]}", operation=False)
            original = [index.query(s, t, labels) for (s, t, labels), _ in probes[name]]
            for position, answer in enumerate(answers):
                (source, target, labels), truth = probes[name][position % len(original)]
                if answer != truth or original[position % len(original)] != truth:
                    run.wrong(f"{name}: ({source}, {target}, {labels}) expected {truth}")
            sizes[name] = os.path.getsize(index_path)
            if traced:
                index_layers(run, index)
        build_s.append(op_build)
        load_s.append(op_load)
        return busy

    # At least two operations, so that build_s is never a single sample
    # when one operation alone outlasts --seconds.
    ops = 0
    busy = 0.0
    while (busy < run.seconds or ops < 2) and not (tracer and tracer.full):
        busy += lifecycle(traced=tracer is not None)
        ops += 1
    run.attempted = ops
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": ops / busy,
        "query_p50_us": p50_us(query_ns),
        "query_p99_us": p99_us(query_ns),
        "build_s": statistics.median(build_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        run.layers["index.file_bytes"] = sum(sizes.values())
        run.layers["index.load_s"] = statistics.median(load_s)
        span_layers(
            run,
            {
                "graph.load_dataset_s": ("graph.load_dataset", "p50_s"),
                "index.query_us": ("index.query", "p50_us"),
            },
        )
        plain_ops = 0
        plain_busy = 0.0
        while plain_ops < ops:
            plain_busy += lifecycle(traced=False)
            plain_ops += 1
        run.layers["trace.overhead_pct"] = overhead_pct((ops, busy), (plain_ops, plain_busy))
    return metrics


def open_session(run: Run, tag: Optional[str], traced: bool):
    """A ``Session`` over EP with its engine and service built.

    ``tag`` names a fresh store directory under the work directory;
    ``None`` opens the session without a persistent store.  Returns the
    session, its set-up seconds and the engine build seconds within.
    """
    from repro.api import Session

    cache_dir = None if tag is None else os.path.join(run.workdir, f"cache-{tag}")
    started = perf_counter()
    session = Session("EP", cache_dir=cache_dir)
    digest_started = perf_counter_ns()
    session.graph_digest  # computed once, keys the store
    if traced:
        run.tracer.span("graph.content_digest", digest_started, perf_counter_ns())
    opened = perf_counter()
    session.engine()
    built = perf_counter()
    session.service()
    return session, perf_counter() - started, built - opened


def instrument(tracer: Tracer, session) -> Dict[str, object]:
    """Wrap the public methods of a session's serving stack.

    Returns the tally of store flushes that rewrote the file (``writes``
    and ``bytes``), which stays empty for a session without a store.
    """
    service = session.service()
    engine = service.engine
    index = engine.backend
    store = service.store
    tracer.wrap(session, "query_outcome", "session.query_outcome")
    tracer.wrap(session, "run", "session.run", items=lambda args: len(args[0]))
    tracer.wrap(
        service,
        "query_outcome",
        "service.query_outcome",
        suffix=lambda outcome: f"[{outcome.cache_layer or 'miss'}]",
    )
    tracer.wrap(service, "run", "service.run", items=lambda args: len(args[0]))
    tracer.wrap(engine, "prepare_query", "engine.prepare_query")
    tracer.wrap(engine, "query_prepared", "engine.query_prepared")
    tracer.wrap(engine, "query_batch", "engine.query_batch", items=lambda args: len(args[0]))
    tracer.wrap(index, "query_mr", "index.query_mr")
    tracer.wrap(index, "query_batch", "index.query_batch", items=lambda args: len(args[0]))
    flushes: Dict[str, object] = {"writes": 0, "bytes": 0, "mtime": None}
    if store is None:
        return flushes

    def flush_kind(_result) -> str:
        """``[wrote]`` when the flush rewrote the file, else ``[clean]``."""
        try:
            status = os.stat(store.path)
        except OSError:
            return "[clean]"
        if status.st_mtime_ns == flushes["mtime"]:
            return "[clean]"
        flushes["mtime"] = status.st_mtime_ns
        flushes["writes"] += 1
        flushes["bytes"] += status.st_size
        return "[wrote]"

    tracer.wrap(store, "flush", "cache.flush", suffix=flush_kind)
    return flushes


# ----------------------------------------------------------------------
# session-replay: session, service, engine and persistent store
# ----------------------------------------------------------------------


def workload_session_replay(run: Run) -> Dict[str, float]:
    from repro.queries import RlcQuery

    tracer = run.tracer
    if tracer:
        trace_graph_loading(run)

    # One set-up before the measured phase and, untraced, the others
    # after it, so that their median samples the CPU at both ends.
    session, setup, build = open_session(run, "0", traced=tracer is not None)
    setups = [setup]
    builds = [build]

    graph = session.graph
    pool, draw_seed = in_child(
        inputs.pool_inputs, graph.num_vertices, list(graph.edges()), run.seed, 200
    )
    requests = [RlcQuery(s, t, labels) for (s, t, labels), _ in pool]

    def replay(session, rounds: int, traced: bool):
        """Alternate one 256-query batch with 256 point queries."""
        draws = ZipfDraws(len(pool), random.Random(draw_seed))
        service = session.service()
        engine = service.engine
        stats = engine.stats()
        evals_before = stats.queries + stats.batched_queries
        point_ns = array("q")
        batch_ns = array("q")
        layers = {"lru": 0, "store": 0, None: 0}
        served_from_cache: Dict[int, bool] = {}
        busy = 0.0
        done = 0
        while done < rounds and not (traced and tracer.full):
            chosen = draws.take(BATCH)
            batch = [requests[i] for i in chosen]
            if traced:
                tracer.request += 1
            started = perf_counter_ns()
            report = session.run(batch, verify=False)
            ended = perf_counter_ns()
            batch_ns.append(ended - started)
            busy += (ended - started) / 1e9
            for i, answer in zip(chosen, report.answers):
                if answer != pool[i][1]:
                    run.wrong(f"batch answer for {pool[i][0]} expected {pool[i][1]}")
            for i in draws.take(BATCH):
                (source, target, labels), truth = pool[i]
                if traced:
                    tracer.request += 1
                started = perf_counter_ns()
                outcome = session.query_outcome(source, target, labels)
                ended = perf_counter_ns()
                point_ns.append(ended - started)
                busy += (ended - started) / 1e9
                layers[outcome.cache_layer] = layers.get(outcome.cache_layer, 0) + 1
                if outcome.answer != truth:
                    run.wrong(f"point answer for {pool[i][0]} expected {truth}")
                if outcome.cache_layer is not None:
                    served_from_cache[i] = outcome.answer
            done += 1
        evals = stats.queries + stats.batched_queries - evals_before
        return done, busy, point_ns, batch_ns, layers, served_from_cache, evals

    flushes = instrument(tracer, session) if tracer else None
    rounds, busy, point_ns, batch_ns, layers, served, evals = replay(
        session, max(1, round(run.seconds * REPLAY_ROUNDS_PER_SECOND)), traced=tracer is not None
    )
    ops = rounds * 2 * BATCH
    run.attempted = ops

    # Property: answers served from the LRU or the store equal a fresh
    # engine evaluation, and every stored entry is the true answer.
    service = session.service()
    engine = service.engine
    for i, cached in served.items():
        (source, target, labels), truth = pool[i]
        fresh = engine.query_prepared(service.prepare(labels), source, target).answer
        if fresh != cached:
            run.wrong(f"cached answer {cached} != fresh {fresh} for {pool[i][0]}", operation=False)
    truth_by_key = {
        (s, t, service.prepare(labels).digest): truth for (s, t, labels), truth in pool
    }
    store = service.store
    for key in store.keys():
        if store.get(key) != truth_by_key.get(key):
            run.wrong(f"store entry {key} disagrees with the oracle", operation=False)

    rss = peak_rss_mb()
    if not tracer:
        session.close()
        for attempt in range(1, SETUPS):
            gc.collect()
            extra, setup, build = open_session(run, str(attempt), traced=False)
            extra.close()
            setups.append(setup)
            builds.append(build)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": ops / busy,
        "query_p50_us": p50_us(point_ns),
        "query_p99_us": p99_us(point_ns),
        "build_s": statistics.median(builds),
        "peak_rss_mb": rss,
    }
    if tracer:
        index_layers(run, engine.backend)
        run.layers["session.engine_build_s"] = builds[0]
        run.layers["engine.evals_per_query"] = evals / ops
        run.layers["service.lru_hit_ratio"] = layers["lru"] / (rounds * BATCH)
        run.layers["cache.flushes"] = flushes["writes"]
        run.layers["cache.bytes_written"] = flushes["bytes"]
        run.layers["cache.file_bytes"] = os.path.getsize(store.path)
        run.layers["batch_p50_us"] = p50_us(batch_ns)
        span_layers(run, SERVING_SPANS)
        session.close()
        session = None
        gc.collect()
        fresh_session, _, _ = open_session(run, "untraced", traced=False)
        plain_rounds, plain_busy, *_ = replay(fresh_session, rounds, traced=False)
        fresh_session.close()
        run.layers["trace.overhead_pct"] = overhead_pct(
            (ops, busy), (plain_rounds * 2 * BATCH, plain_busy)
        )
    return metrics


#: Span statistics shared by the in-process serving stack.
SERVING_SPANS = {
    "graph.load_dataset_s": ("graph.load_dataset", "p50_s"),
    "graph.content_digest_s": ("graph.content_digest", "p50_s"),
    "session.query_outcome_us": ("session.query_outcome", "p50_us"),
    "session.run_us": ("session.run", "p50_us"),
    "service.lru_hit_us": ("service.query_outcome[lru]", "p50_us"),
    "service.store_hit_us": ("service.query_outcome[store]", "p50_us"),
    "service.miss_us": ("service.query_outcome[miss]", "p50_us"),
    "service.run_us": ("service.run", "p50_us"),
    "engine.prepare_query_us": ("engine.prepare_query", "p50_us"),
    "engine.query_prepared_us": ("engine.query_prepared", "p50_us"),
    "engine.query_batch_us": ("engine.query_batch", "per_item_p50_us"),
    "index.query_mr_us": ("index.query_mr", "p50_us"),
    "index.query_batch_us": ("index.query_batch", "per_item_p50_us"),
    "cache.flush_s": ("cache.flush[wrote]", "p50_s"),
}


# ----------------------------------------------------------------------
# http-point: `repro serve` in its own process, one keep-alive client
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve EP`` child process on an ephemeral port."""

    def __init__(self, run: Run) -> None:
        env = dict(os.environ)
        src = os.path.join(run.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.conn: Optional[http.client.HTTPConnection] = None
        self._log = open(os.path.join(run.workdir, "server.log"), "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "EP", "--port", "0", "--quiet"],
            cwd=run.workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split(" on http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.connections = 0
        self.reconnect()

    def reconnect(self) -> None:
        """Open and connect a new connection if the last one was closed.

        Callers that time requests call this after the timed section, so
        a TCP connect is never added to the next request's sample.
        """
        if self.conn is None:
            self.connections += 1
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            self.conn.connect()

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        """One request on the keep-alive connection: ``(status, bytes)``.

        The server closes the connection after an error status, so the
        client drops it then, as it does when told to close; the next
        :meth:`reconnect` (or call) opens a new one.
        """
        self.reconnect()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if response.will_close or response.status >= 400:
            self.conn.close()
            self.conn = None
        return response.status, data

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's status")

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def workload_http_point(run: Run) -> Dict[str, float]:
    from repro.graph import datasets

    tracer = run.tracer
    graph = datasets.load_dataset("EP")
    pool, stream_seed = in_child(
        inputs.pool_inputs, graph.num_vertices, list(graph.edges()), run.seed, 20
    )
    bodies = [
        json.dumps({"source": s, "target": t, "labels": list(labels)}).encode()
        for (s, t, labels), _ in pool
    ]
    malformed = [json.dumps(body).encode() for body in MALFORMED]
    warm = json.dumps(
        {"queries": [{"source": s, "target": t, "labels": list(l)} for (s, t, l), _ in pool]}
    ).encode()

    setups: List[float] = []
    builds: List[float] = []

    def start_server() -> Server:
        """A server ready and warm; records its set-up and build time.

        The server builds its engine on the first request, so the
        warm-up ``/batch`` round trip holds the engine build.
        """
        started = perf_counter()
        server = Server(run)
        warm_started = perf_counter()
        status, data = server.call("POST", "/batch", warm)
        ended = perf_counter()
        setups.append(ended - started)
        builds.append(ended - warm_started)
        if status != 200:
            server.stop()
            raise RuntimeError(f"warm-up /batch failed: {status} {data[:200]!r}")
        for (query, truth), answer in zip(pool, json.loads(data)["answers"]):
            if answer != truth:
                run.wrong(f"/batch answer for {query} expected {truth}")
        return server

    # One set-up before the measured phase and, untraced, the others
    # after it, so that their median samples the CPU at both ends.
    server: Optional[Server] = start_server()
    try:
        status, data = server.call("GET", "/healthz")
        if json.loads(data).get("digest") != graph.content_digest():
            raise RuntimeError("the server serves another graph than the oracle checks")

        def stream(rounds: Optional[int], traced: bool):
            rng = random.Random(stream_seed)
            latencies = array("q")
            sent: List[int] = []
            busy = 0.0
            done = 0
            connections = server.connections
            while busy < run.seconds if rounds is None else done < rounds:
                for position in range(HTTP_ROUND):
                    bad = position == HTTP_ROUND - 1
                    choice = done % len(malformed) if bad else rng.randrange(len(pool))
                    body = malformed[choice] if bad else bodies[choice]
                    started = perf_counter_ns()
                    status, data = server.call("POST", "/query", body)
                    ended = perf_counter_ns()
                    server.reconnect()
                    busy += (ended - started) / 1e9
                    if bad:
                        if status != 400:
                            run.failed += 1
                        continue
                    latencies.append(ended - started)
                    sent.append(choice)
                    if traced:
                        tracer.span("server.request", started, ended)
                    if status != 200 or json.loads(data)["answer"] != pool[choice][1]:
                        run.wrong(f"/query {pool[choice][0]} -> {status} {data[:120]!r}")
                done += 1
            # Connections the stream used: the one it started on and any
            # the server's closing made it open.
            return done, busy, latencies, sent, server.connections - connections + 1

        rounds, busy, latencies, sent, connections = stream(None, traced=tracer is not None)
        run.attempted = rounds * HTTP_ROUND
        rss = server.peak_rss_mb()
        if not tracer:
            for _ in range(1, SETUPS):
                server.stop()
                server = None
                server = start_server()
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": run.attempted / busy,
            "query_p50_us": p50_us(latencies),
            "query_p99_us": p99_us(latencies),
            "build_s": statistics.median(builds),
            "peak_rss_mb": rss,
        }
        if tracer:
            failed = run.failed
            plain_rounds, plain_busy, *_ = stream(rounds, traced=False)
            run.failed = failed
            run.layers["trace.overhead_pct"] = overhead_pct(
                (run.attempted, busy), (plain_rounds * HTTP_ROUND, plain_busy)
            )
            run.layers["server.connections"] = connections
            replay_in_process(run, pool, sent)
            request_us = run.tracer.summary()["server.request"]["p50_us"]
            run.layers["server.request_us"] = request_us
            run.layers["server.self_us"] = request_us - run.layers["session.query_outcome_us"]
        return metrics
    finally:
        if server is not None:
            server.stop()


def replay_in_process(run: Run, pool, sent: List[int]) -> None:
    """Replay the served stream through an in-process, traced session.

    The layers below the server are the same code in both processes;
    timing them here gives the request's split between the server's
    own work and ``Session.query_outcome`` on the same stream.
    """
    from repro.queries import RlcQuery

    tracer = run.tracer
    trace_graph_loading(run)
    session, _, build = open_session(run, None, traced=True)
    run.layers["session.engine_build_s"] = build
    session.run([RlcQuery(s, t, labels) for (s, t, labels), _ in pool], verify=False)
    engine = session.service().engine
    instrument(tracer, session)
    stats = engine.stats()
    evals_before = stats.queries + stats.batched_queries
    hits = 0
    for i in sent:
        (source, target, labels), truth = pool[i]
        tracer.request += 1
        outcome = session.query_outcome(source, target, labels)
        hits += outcome.cache_layer == "lru"
        if outcome.answer != truth:
            run.wrong(f"in-process replay {pool[i][0]} expected {truth}")
    run.layers["engine.evals_per_query"] = (
        stats.queries + stats.batched_queries - evals_before
    ) / len(sent)
    run.layers["service.lru_hit_ratio"] = hits / len(sent)
    index_layers(run, engine.backend)
    span_layers(run, SERVING_SPANS)
    session.close()


# ----------------------------------------------------------------------
# update-mixed: inserts beside reads, one rebuild per round
# ----------------------------------------------------------------------

QUERIES_PER_INSERT = 9
#: Inserts per round: enough to cross the 20 % rebuild threshold of
#: the WN stand-in (5,885 edges -> rebuild at the 1,178th) exactly once.
ROUND_INSERTS = 1_200


def workload_update_mixed(run: Run) -> Dict[str, float]:
    from repro.core.builder import build_rlc_index
    from repro.core.dynamic import DynamicRlcIndex
    from repro.graph import datasets

    tracer = run.tracer
    if tracer:
        trace_graph_loading(run)
    setups = []
    for _ in range(1 if tracer else SETUPS):
        gc.collect()
        started = perf_counter()
        graph = datasets.load_dataset("WN")
        index = build_rlc_index(graph, 2)
        DynamicRlcIndex(graph, index)
        setups.append(perf_counter() - started)

    pool, inserts, stream, expected = in_child(
        inputs.update_inputs,
        graph.num_vertices,
        list(graph.edges()),
        run.seed,
        ROUND_INSERTS,
        QUERIES_PER_INSERT,
    )

    query_ns = array("q")
    insert_ns = array("q")
    rebuild_s: List[float] = []
    pending_peak = 0

    def one_round(traced: bool) -> float:
        nonlocal pending_peak
        gc.collect()
        dyn = DynamicRlcIndex(graph, index)
        if traced:
            tracer.wrap(
                dyn, "query", "dynamic.query", suffix=lambda answer: "[true]" if answer else "[false]"
            )
            tracer.wrap(dyn, "insert_edge", "dynamic.insert_edge")
            tracer.wrap(dyn, "rebuild", "dynamic.rebuild")
        answers: List[Optional[bool]] = []
        busy = 0
        for is_insert, position in stream:
            if traced:
                tracer.request += 1
            if is_insert:
                rebuilds = dyn.rebuild_count
                started = perf_counter_ns()
                dyn.insert_edge(*inserts[position])
                ended = perf_counter_ns()
                if dyn.rebuild_count == rebuilds:
                    insert_ns.append(ended - started)
                else:
                    rebuild_s.append((ended - started) / 1e9)
                pending_peak = max(pending_peak, dyn.pending_insertions)
                answers.append(None)
            else:
                source, target, labels = pool[position][0]
                started = perf_counter_ns()
                answer = dyn.query(source, target, labels)
                ended = perf_counter_ns()
                query_ns.append(ended - started)
                answers.append(answer)
            busy += ended - started
        # Checks: the oracle on the grown graph, and monotonicity.
        once_true = set()
        for (is_insert, position), answer, truth in zip(stream, answers, expected):
            if is_insert:
                continue
            if answer != truth:
                run.wrong(f"dynamic answer for {pool[position][0]} expected {truth}")
            if answer:
                once_true.add(position)
            elif position in once_true:
                run.wrong(f"{pool[position][0]} turned false after inserts")
        if dyn.rebuild_count != 1:
            run.wrong(f"round rebuilt {dyn.rebuild_count} times, expected once", operation=False)
        return busy / 1e9

    rounds = 0
    busy = 0.0
    while busy < run.seconds and not (tracer and tracer.full):
        busy += one_round(traced=tracer is not None)
        rounds += 1
    ops = rounds * len(stream)
    run.attempted = ops
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": ops / busy,
        "query_p50_us": p50_us(query_ns),
        "query_p99_us": p99_us(query_ns),
        "build_s": statistics.median(rebuild_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        index_layers(run, index)
        run.layers["dynamic.insert_us"] = p50_us(insert_ns)
        run.layers["dynamic.rebuilds"] = len(rebuild_s) / rounds
        run.layers["dynamic.pending_peak"] = pending_peak
        span_layers(
            run,
            {
                "graph.load_dataset_s": ("graph.load_dataset", "p50_s"),
                "dynamic.rebuild_s": ("dynamic.rebuild", "p50_s"),
                "dynamic.query_true_us": ("dynamic.query[true]", "p50_us"),
                "dynamic.query_false_us": ("dynamic.query[false]", "p50_us"),
            },
        )
        plain = sum(one_round(traced=False) for _ in range(rounds))
        run.layers["trace.overhead_pct"] = overhead_pct((ops, busy), (ops, plain))
    return metrics


WORKLOADS = {
    "build": workload_build,
    "session-replay": workload_session_replay,
    "http-point": workload_http_point,
    "update-mixed": workload_update_mixed,
}
