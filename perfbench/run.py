"""The EOS object-server benchmark: one command, four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-mix --seed 1 --seconds 10 --trace 0

Each run starts the object server (``repro.tools.servectl serve``, one
shard, fresh in-memory volume) and a raw TCP echo process, each in its
own process, preloads the workload's objects with the same CREATE calls
clients use, and drives the workload from one closed-loop ``EOSClient``
for ``--seconds`` seconds.  Every result the server returns is checked
against an independent byte model (``workloads.Model``).  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the run also replays the
identical operation stream on an in-process replica database to time
the engine and its layers (spans written to ``perfbench/out/``).  See
``perfbench/README.md`` for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
from replica import Spans, median_or_zero, replay  # noqa: E402
from workloads import (  # noqa: E402
    MUTATIONS, READS, WORKLOADS, Model, OracleMismatch, check, perform,
)

#: The DISK_1992 geometry of the paper's cost model.
SEEK_MS = 16.0
TRANSFER_MS_PER_PAGE = 1.33
PAGE_SIZE = 4096
#: Fresh servers set up per run; ``setup_s`` is their median.
SETUPS = 3
#: A percentile is reported only over at least this many samples, so a
#: run goes on until it has this many reads.
MIN_TAIL_SAMPLES = 1000
#: A run goes past ``--seconds`` until it has MIN_TAIL_SAMPLES reads
#: that the hypervisor did not interrupt, but never past this multiple.
MAX_PHASE_FACTOR = 2
#: Echo round trips and CPU probes after every round.
ECHO_PER_BLOCK = 20
PROBE_PER_BLOCK = 2
#: Traced runs time this many PINGs before and as many after the
#: measured phase, outside the server's metric windows.
PINGS = 100
#: The reference host's quiet-period echo round trip and CPU probe time.
#: Wall-clock figures are scaled by the run's own echo and probe against
#: these, so they read as on the reference host at its usual speed.
ECHO_REF_US = 60.0
PROBE_REF_US = 2500.0
#: Largest single READ of the final content check (below MAX_PAYLOAD).
CHUNK = 4 * 2**20


class Tally:
    """Round trips and costs of a set of rounds."""

    def __init__(self) -> None:
        self.rtts: list[int] = []
        self.reads: list[int] = []
        self.writes: list[int] = []
        self.echo: list[int] = []
        self.probe: list[int] = []
        self.ping: list[int] = []
        self.read_bytes = 0
        # Operations and their summed round trips, untraced and traced.
        self.ops = [0, 0]
        self.busy_ns = [0, 0]
        # Per round: operations and READ bytes per second of round trip.
        self.round_ops_s: list[float] = []
        self.round_mb_s: list[float] = []
        self._mark = (0, 0, 0)

    def end_round(self) -> None:
        ops, busy, read = sum(self.ops), sum(self.busy_ns), self.read_bytes
        if busy > self._mark[1]:
            seconds = (busy - self._mark[1]) / 1e9
            self.round_ops_s.append((ops - self._mark[0]) / seconds)
            self.round_mb_s.append((read - self._mark[2]) / seconds / 1e6)
        self._mark = (ops, busy, read)

    def add(self, op: tuple, rtt: int, traced: bool) -> None:
        self.rtts.append(rtt)
        self.ops[traced] += 1
        self.busy_ns[traced] += rtt
        if op[0] in READS:
            self.reads.append(rtt)
            self.read_bytes += op[3]
        elif op[0] in MUTATIONS:
            self.writes.append(rtt)


def verify_result(model: Model, op: tuple, result) -> None:
    """Compare one result with the model; applies mutations to it."""
    kind, idx = op[0], op[1]
    if kind in READS:
        check(f"{kind} of object #{idx}", result, model.expect_read(op))
    elif kind in MUTATIONS:
        check(f"size after {kind} of object #{idx}", result, model.apply(op))
    else:
        check(f"stat size of object #{idx}", result.size_bytes, model.size(idx))


def verify_final(client, oids: list[int], model: Model) -> None:
    """LIST sizes, full contents and retained versions against the model."""
    listing = dict(client.list_objects())
    check("LIST", listing, {oid: model.size(i) for i, oid in enumerate(oids)})
    for i, oid in enumerate(oids):
        size = model.size(i)
        content = b"".join(client.read(oid, at, min(CHUNK, size - at))
                           for at in range(0, size, CHUNK))
        check(f"content of object #{i}", content, bytes(model.objects[i]))
        if not model.retain:
            continue
        versions = [v.version for v in client.versions(oid)]
        check(f"retained versions of object #{i}", versions, model.retained(i))
        for version in versions:
            expected = model.saved[i][version]
            if expected:
                got = client.read(oid, 0, len(expected), version=version)
                check(f"object #{i} version {version}", got, expected)


def setup(workload_cls, seed: int, out: Path):
    """Start fresh servers and preload them; keeps the last one.

    Returns ``(server, client, workload, preload, oids, setup_times)``.
    The preload data is drawn before each clock starts.
    """
    from repro.server.client import EOSClient

    times = []
    server = client = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                client.close()
                server.stop()
            workload = workload_cls(seed)
            preload = workload.preload()
            t0 = time.perf_counter()
            server = procs.server(ROOT, out, pages=workload.pages,
                                  retain=workload.retain)
            server.start()
            client = EOSClient(port=server.port, timeout=120.0).connect()
            oids = [client.create(data) for data in preload]
            times.append(time.perf_counter() - t0)
    except BaseException:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
        raise
    return server, client, workload, preload, oids, times


def metrics_doc(client) -> tuple[dict, int]:
    """The server's METRICS document and the bytes of its reply frame.

    The server counts a METRICS reply in ``server.bytes_out`` after it
    took the snapshot, so the next document's count includes it.
    """
    from repro.server import protocol
    from repro.server.protocol import Opcode

    body = client.call(Opcode.METRICS)
    return json.loads(body.decode("utf-8")), protocol.HEADER.size + len(body)


def delta(after: dict, before: dict, *path: str):
    """``after - before`` at ``path``; a histogram gives count and sum.

    An instrument the server has not registered yet counts as zero.
    """
    a, b = after, before
    for key in path:
        a, b = (a or {}).get(key), (b or {}).get(key)
    if isinstance(a, dict):
        b = b or {}
        return {k: a[k] - b.get(k, 0) for k in ("count", "sum")}
    return (a or 0) - (b or 0)


def mean_us(after: dict, before: dict, histogram: str) -> float:
    d = delta(after, before, "metrics", histogram)
    return d["sum"] * 1000.0 / d["count"] if d.get("count") else 0.0


def counter(after: dict, before: dict, name: str) -> int:
    return delta(after, before, "metrics", name)


class Run:
    """One benchmark run: set-up, measured phase, checks, metrics."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.trace = bool(args.trace)
        self.cls = WORKLOADS[args.workload]
        self.out = HERE / "out"
        self.attempted = 0
        self.failed = 0
        self.spans = Spans() if self.trace else None
        self.steal = procs.StealClock()
        self.recorded: list[tuple] = []

    def execute(self, client, oids, model, op, traced: bool = False):
        """Issue, time and check one op.

        Returns its round trip in ns and whether the hypervisor stole
        CPU time from this guest while it was in flight.
        """
        self.attempted += 1
        if traced:
            self.spans.begin(f"client.{op[0]}")
        stolen = self.steal.ticks()
        t0 = time.perf_counter_ns()
        try:
            result = perform(client, oids, op)
        finally:
            rtt = time.perf_counter_ns() - t0
            stolen = self.steal.ticks() != stolen
            if traced:
                self.spans.end()
        if self.trace:
            self.recorded.append(op)
        verify_result(model, op, result)
        return rtt, stolen

    def main(self) -> dict:
        from repro.errors import ReproError

        args, cls = self.args, self.cls
        echo = procs.echo(ROOT, self.out)
        server = client = echo_client = None
        try:
            echo.start()
            server, client, workload, preload, oids, setup_times = setup(
                cls, args.seed, self.out)
            model = Model(workload.retain)
            for data in preload:
                model.create(data)
            if args.corrupt_model:
                # Self-test: one wrong byte in the model must be caught.
                model.objects[0][len(model.objects[0]) // 2] ^= 0xFF
            echo_client = procs.EchoClient(echo.port, 32)
            try:
                metrics = self.measure(server, client, echo_client, workload,
                                       model, oids)
                verify_final(client, oids, model)
            except ReproError:
                self.failed += 1
                raise
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            if self.trace:
                self.add_replica_metrics(metrics, workload, preload, model)
            self.check_properties(metrics)
            return metrics
        finally:
            if echo_client is not None:
                echo_client.close()
            if client is not None:
                client.close()
            if server is not None:
                server.stop()
            echo.stop()
            self.steal.close()

    def measure(self, server, client, echo_client, workload, model, oids) -> dict:
        args = self.args
        n = 0
        while n < workload.warmup_ops:
            for op in workload.next_ops(model):
                self.execute(client, oids, model, op)
                n += 1
        self.warmup_count = len(self.recorded)

        def echo_block(tally: Tally) -> None:
            for _ in range(ECHO_PER_BLOCK):
                stolen = self.steal.ticks()
                rtt = echo_client.round_trip_ns()
                if self.steal.ticks() == stolen:
                    tally.echo.append(rtt)
            for _ in range(PROBE_PER_BLOCK):
                stolen = self.steal.ticks()
                took = procs.cpu_probe_ns()
                if self.steal.ticks() == stolen:
                    tally.probe.append(took)

        def ping_block(tally: Tally) -> None:
            if self.trace:
                for _ in range(PINGS):
                    t0 = time.perf_counter_ns()
                    client.ping()
                    tally.ping.append(time.perf_counter_ns() - t0)

        clean, everything = Tally(), Tally()
        ping_block(clean)
        echo_block(clean)
        doc0, doc0_bytes = metrics_doc(client)
        cpu0 = server.cpu_s()
        self.phase_rtts = []
        doc1 = None
        n = rounds = 0
        wall0 = time.perf_counter()
        while True:
            traced = self.trace and rounds % 2 == 1
            end = n + workload.round_ops
            while n < end:
                for op in workload.next_ops(model):
                    rtt, stolen = self.execute(client, oids, model, op, traced)
                    self.phase_rtts.append(rtt)
                    everything.add(op, rtt, traced)
                    if not stolen:
                        clean.add(op, rtt, traced)
                    n += 1
            echo_block(clean)
            clean.end_round()
            everything.end_round()
            rounds += 1
            if doc1 is None and n >= workload.counted_ops:
                doc1 = client.metrics()
                counted = n
                live_bytes = model.live_bytes()
                counted_writes = sum(
                    1 for op in self.recorded[self.warmup_count:counted
                                              + self.warmup_count]
                    if op[0] in MUTATIONS) if self.trace else 0
            if doc1 is None or len(everything.reads) < MIN_TAIL_SAMPLES:
                continue
            elapsed = time.perf_counter() - wall0
            if elapsed >= args.seconds and len(clean.reads) >= MIN_TAIL_SAMPLES:
                break
            if elapsed >= MAX_PHASE_FACTOR * args.seconds:
                break
        cpu_s = server.cpu_s() - cpu0
        rss = server.peak_rss_mib()
        doc2 = client.metrics()
        ping_block(clean)
        self.disturbed_share = 1.0 - len(clean.rtts) / len(everything.rtts)
        if len(clean.reads) < MIN_TAIL_SAMPLES:
            # The host stole time during nearly every op: report them all.
            print(f"warning: only {len(clean.reads)} undisturbed reads; "
                  "reporting every op", file=sys.stderr)
            everything.echo, everything.probe = clean.echo, clean.probe
            everything.ping = clean.ping
            clean = everything
        rtts, read_rtts, write_rtts, echo_ns, ping_ns = (
            clean.rtts, clean.reads, clean.writes, clean.echo, clean.ping)
        io = {k: delta(doc1, doc0, "stats", "io", k)
              for k in ("seeks", "page_reads", "page_writes")}
        pages = io["page_reads"] + io["page_writes"]
        self.io, self.counted = io, counted
        space = doc1["space"]
        allocated = space["total_pages"] - space["free_pages"]
        # Wall-clock figures at the reference host's speed (see README).
        echo_us = statistics.median(echo_ns) / 1000.0
        probe_us = statistics.median(clean.probe) / 1000.0
        self.speed = {"echo_us": echo_us, "probe_us": probe_us, "factor": (
            probe_us / PROBE_REF_US * echo_us / ECHO_REF_US) ** 0.5}
        slow = self.speed["factor"]
        self.raw = {
            "ops_per_s": statistics.median(clean.round_ops_s),
            "read_p50_ms": statistics.median(read_rtts) / 1e6,
            "read_p99_ms": statistics.quantiles(read_rtts, n=100)[98] / 1e6,
            "write_p50_ms": statistics.median(write_rtts) / 1e6,
            "read_mb_s": statistics.median(clean.round_mb_s),
            "server_cpu_us_per_op": cpu_s * 1e6 / n,
        }
        raw = self.raw
        metrics = {
            "ops_per_s": (raw["ops_per_s"] * slow, "1/s"),
            "read_p50_ms": (raw["read_p50_ms"] / slow, "ms"),
            "write_p50_ms": (raw["write_p50_ms"] / slow, "ms"),
            "read_mb_s": (raw["read_mb_s"] * slow, "MB/s"),
            "server_cpu_us_per_op": (raw["server_cpu_us_per_op"] / slow, "us"),
            "rtt_x_echo": (statistics.median(rtts) / statistics.median(echo_ns),
                           "ratio"),
            "io_model_ms_per_op": (
                (SEEK_MS * io["seeks"] + TRANSFER_MS_PER_PAGE * pages) / counted,
                "ms"),
            "space_amp": (allocated * PAGE_SIZE / live_bytes, "ratio"),
            "server_rss_mb": (rss, "MiB"),
        }
        if not self.trace:
            return metrics

        # Per-layer figures from the served database's own counters.
        per = {}

        def per_op(name, value, unit="count"):
            per[name] = (value / counted, unit)

        for key in ("hits", "misses", "evictions", "writebacks"):
            per_op(f"buffer.{key}_per_op", delta(doc1, doc0, "stats", "buffer", key))
        for key in ("seeks", "page_reads", "page_writes"):
            per_op(f"disk.{key}_per_op", io[key])
        per["disk.seeks_per_mb"] = (
            io["seeks"] / (pages * PAGE_SIZE / 2**20) if pages else 0.0, "1/MiB")
        for key in ("allocations", "frees", "directory_loads"):
            per_op(f"buddy.{key}_per_op", delta(doc1, doc0, "stats", "alloc", key))
        writes = max(counted_writes, 1)
        per["versions.published_per_write"] = (
            counter(doc1, doc0, "versions.published") / writes, "count")
        per["versions.relocations_per_write"] = (
            counter(doc1, doc0, "versions.relocations") / writes, "count")
        per_op("versions.pages_reclaimed_per_op",
               counter(doc1, doc0, "versions.pages_reclaimed"))
        # The tail: too much of it is the host's on a shared machine for
        # a bound to hold (see README), so it is reported ungated.
        per["read_p99_ms"] = (raw["read_p99_ms"] / slow, "ms")
        per["server.request_us"] = (mean_us(doc2, doc0, "server.latency_ms"), "us")
        per["server.execute_us"] = (mean_us(doc2, doc0, "server.execute_ms"), "us")
        per["server.lock_wait_us"] = (mean_us(doc2, doc0, "server.lock_wait_ms"), "us")
        per_op("server.bytes_out_per_op",
               counter(doc1, doc0, "server.bytes_out") - doc0_bytes, "B")
        per["client.ping_us"] = (statistics.median(ping_ns) / 1000.0, "us")
        per["net.echo_us"] = (statistics.median(echo_ns) / 1000.0, "us")
        untraced = clean.ops[0] / (clean.busy_ns[0] / 1e9)
        traced_rate = clean.ops[1] / (clean.busy_ns[1] / 1e9)
        per["trace.client_overhead_pct"] = (
            (untraced - traced_rate) / untraced * 100.0, "%")
        metrics.update(per)
        return metrics

    def add_replica_metrics(self, metrics: dict, workload, preload, model) -> None:
        """Replay the served stream in process: engine and layer times."""
        plain = replay(workload.pages, workload.retain, preload, self.recorded)
        check("replica sizes", plain["sizes"],
              [model.size(i) for i in range(len(model.objects))])
        spans = self.spans
        traced = replay(workload.pages, workload.retain, preload, self.recorded,
                        spans=spans, measure_from=self.warmup_count)
        since = traced["phase_span"]
        spans.write_jsonl(
            self.out / f"trace-{self.args.workload}-s{self.args.seed}.jsonl")

        phase_ops = self.recorded[self.warmup_count:]
        engine_ns = plain["times"][self.warmup_count:]
        by_kind: dict[str, list[float]] = {}
        for op, ns in zip(phase_ops, engine_ns):
            by_kind.setdefault(op[0], []).append(ns / 1000.0)
        for kind in ("read", "write", "insert", "delete", "append", "stat"):
            metrics[f"engine.{kind}_us"] = (median_or_zero(by_kind.get(kind)), "us")
        metrics["versions.snapshot_read_us"] = (
            median_or_zero(by_kind.get("sread")), "us")
        read_ns = sum(ns for op, ns in zip(phase_ops, engine_ns) if op[0] in READS)
        read_bytes = sum(op[3] for op in phase_ops if op[0] in READS)
        metrics["engine.read_mb_s"] = (
            read_bytes / (read_ns / 1e9) / 1e6 if read_ns else 0.0, "MB/s")
        metrics["datapath.copies_per_byte"] = (
            plain["copied"] / plain["moved"] if plain["moved"] else 0.0, "ratio")
        metrics["server.overhead_us"] = (statistics.median(
            (rtt - ns) / 1000.0 for rtt, ns in zip(self.phase_rtts, engine_ns)),
            "us")
        # Layer figures over the measured phase only: no preload, no warm-up.
        metrics["buddy.alloc_us"] = (median_or_zero(
            spans.durations_us("buddy.allocate", since)), "us")
        metrics["buddy.free_us"] = (median_or_zero(
            spans.durations_us("buddy.free", since)), "us")
        for layer in ("engine", "buffer", "buddy", "segio"):
            metrics[f"{layer}.self_us_per_op"] = (
                spans.self_us(f"{layer}.", since) / len(phase_ops), "us")
        metrics["trace.engine_overhead_pct"] = (
            (traced["total_ns"] - plain["total_ns"]) / plain["total_ns"] * 100.0,
            "%")

    def check_properties(self, metrics: dict) -> None:
        """Properties every correct run has, whatever the seed."""
        from repro.storage.geometry import DISK_1992

        if metrics["space_amp"][0] < 1.0:
            raise OracleMismatch(
                f"space_amp {metrics['space_amp'][0]} < 1.0: the volume "
                "holds fewer pages than the live bytes need")
        # The benchmark's own formula against the program's cost model
        # over the same counts.
        io = self.io
        program = DISK_1992.cost_ms(
            io["seeks"], io["page_reads"] + io["page_writes"], PAGE_SIZE
        ) / self.counted
        ours = metrics["io_model_ms_per_op"][0]
        if abs(program - ours) > 1e-9 * max(1.0, ours):
            raise OracleMismatch(
                f"io_model_ms_per_op {ours} is not the program's DISK_1992 "
                f"cost over the same counts ({program})")


def selected(metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-model", action="store_true",
                   help="self-test: flip one model byte; the run must fail")
    return p.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through every ``finally`` so the child processes are
    # stopped and waited for.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "server").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.errors import ReproError

    client_cpus = procs.placement()[0]
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)

    run = Run(args)
    correct = True
    try:
        metrics = run.main()
    except (OracleMismatch, ReproError) as exc:
        # A failed operation leaves the model behind the program, so the
        # run cannot go on; it is reported, never retried.
        print(f"WRONG: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        correct, metrics = False, None
    host = procs.host_fingerprint()
    print(f"host: {json.dumps(host)}")
    if metrics is not None:
        for name, (value, unit) in metrics.items():
            print(f"{name:34s} {value:14.6f} {unit}")
        for name, value in {**run.raw, **run.speed}.items():
            print(f"raw {name:30s} {value:14.6f}")
        shown = selected(metrics, run.trace)
    else:
        shown = {}
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": shown}
    run.out.mkdir(parents=True, exist_ok=True)
    with open(run.out / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "host": host,
                            "disturbed_share": getattr(run, "disturbed_share", None),
                            "speed": getattr(run, "speed", None),
                            "raw": getattr(run, "raw", None),
                            **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
