"""polycoh benchmark: time to a correct verdict on four query workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the engine is imported from its
``src`` directory.  The load is a closed loop with one client: one worker
process (worker.py) answers one query at a time, and the next query is sent
only after the previous answer arrived.  Queries are generated from the
seed (workloads.py), and every answer is checked against an independent
reference (reference.py) after the timed loop.

--trace 0 reports the end-to-end metrics, measured with no wrappers
installed.  --trace 1 runs the loop with the tracer (tracer.py) installed
in the worker, reports the per-layer metrics, then replays the same queries
untraced to report the tracing overhead.  Inputs that failed when the
benchmark was defined (the hostile inputs of ``rings``) are asked after the
timed loop in a worker of their own and reported apart, so that ``failed``
counts only the timed queries.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MEM_CAP_MB = 384  # address-space cap of the worker process only
KILL_GRACE_S = 10.0  # past the time limit, the worker is killed and restarted
SETUP_PROBES = 14  # extra workers started only to time set-up
TAIL_MIN_BEYOND = 10



def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_percentile(n: int, ladder=(99.9, 99.5, 99, 98, 95, 90, 85, 80, 75, 50)) -> float | None:
    """The highest percentile of ``ladder`` with at least ten samples beyond
    it among n samples, or None if there is none."""
    for q in ladder:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return None


# ---------------------------------------------------------------------------
# The worker process.


class Worker:
    """One worker process, restarted after it dies or overruns a query."""

    def __init__(self, workload, trace_file: str | None = None) -> None:
        self.cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(MEM_CAP_MB),
                    str(workload.time_limit_s)] + ([trace_file] if trace_file else [])
        self.hard_limit = workload.time_limit_s + KILL_GRACE_S
        self.restarts = 0
        self._start()

    def _start(self) -> None:
        self.proc = subprocess.Popen(
            self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        ready = self._read(60.0)
        if ready is None:
            self.close()
            raise RuntimeError("benchmark worker failed to start")
        self.setup_s = ready["setup_s"]

    def _read(self, timeout: float) -> dict | None:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        return json.loads(line) if line else None

    def ask(self, qid: int, query) -> dict:
        began = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(query.message(qid)) + "\n")
            self.proc.stdin.flush()
            reply = self._read(self.hard_limit)
        except BrokenPipeError:
            reply = None
        if reply is not None:
            return reply
        elapsed = time.perf_counter() - began
        self.close()
        self.restarts += 1
        self._start()
        return {"id": qid, "status": "killed", "elapsed": elapsed, "value": None,
                "error": "worker overran the time limit or died; restarted"}

    def finish(self) -> dict:
        """Ask the worker to finish and wait for it to exit."""
        try:
            self.proc.stdin.write('{"op": "finish"}\n')
            self.proc.stdin.flush()
            reply = self._read(120.0)
        except BrokenPipeError:
            reply = None
        self.close()
        if reply is None:
            raise RuntimeError("benchmark worker did not finish")
        return reply

    def close(self) -> None:
        """Close the pipes and wait for the worker; kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Outcome:
    query: object
    status: str  # ok, wrong, timeout, memory, recursion, error, rejected, killed
    elapsed: float
    detail: str | None = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def closed_loop(worker: Worker, queries, seconds: float | None = None,
                count: int | None = None) -> list:
    """Send queries one at a time until ``seconds`` pass or ``count`` ran."""
    replies = []
    start = time.perf_counter()
    for qid, query in enumerate(queries):
        if qid == count or (seconds is not None and time.perf_counter() - start >= seconds):
            break
        replies.append((query, worker.ask(qid, query)))
    return replies


def grade(replies, reference) -> list[Outcome]:
    """Classify each reply; check every answer against the reference."""
    from reference import WrongVerdict

    out = []
    for query, reply in replies:
        status, detail, value = reply["status"], reply["error"], reply["value"]
        if status == "ok" and query.op == "cli" and value["exit"] != 0:
            status, detail = "rejected", value["stderr"].strip()[:200]
        if status == "ok":
            try:
                reference.check(query, value)
            except WrongVerdict as exc:
                status, detail = "wrong", str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                status, detail = "wrong", f"malformed answer: {type(exc).__name__}: {exc}"
        out.append(Outcome(query, status, reply["elapsed"], detail))
    return out


# ---------------------------------------------------------------------------
# The two kinds of run.


def _stream(workload, seed: int):
    rng = random.Random(seed)
    return itertools.chain(workload.fixed(rng), workload.stream(rng))


def measured_run(workload, seed: int, seconds: float, reference) -> tuple[list, dict, list]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = Worker(workload)
        setups.append(probe.setup_s)
        probe.finish()
    worker = Worker(workload)
    setups.append(worker.setup_s)
    try:
        replies = closed_loop(worker, _stream(workload, seed), seconds=seconds)
    finally:
        worker.finish()
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    outcomes = grade(replies, reference)
    latencies = [o.elapsed * 1000 for o in outcomes]
    verdicts = sum(o.status in ("ok", "wrong") for o in outcomes)
    # Engine time only: the pipe round trip to the worker is harness cost,
    # which an in-process caller does not pay.
    busy = sum(o.elapsed for o in outcomes)
    n, q = len(latencies), workload.tail_percentile
    rule = tail_percentile(n)
    notes = [f"tail: p{q:g} of {n} samples, {samples_beyond(n, q)} beyond it; at this "
             f"count the ten-beyond rule would pick {f'p{rule:g}' if rule else 'none'}",
             f"setup samples: {', '.join(f'{s:.4f}' for s in setups)}",
             f"worker restarts: {worker.restarts}"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (verdicts / busy, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_tail_ms": (percentile(latencies, q), "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return outcomes, metrics, notes


def traced_run(workload, seed: int, seconds: float, reference, trace_file: str) -> tuple[list, dict, list]:
    import tracer

    worker = Worker(workload, trace_file)
    try:
        replies = closed_loop(worker, _stream(workload, seed), seconds=seconds)
    finally:
        layers = worker.finish()["layers"]
    plain = Worker(workload)
    try:
        plain_replies = closed_loop(plain, _stream(workload, seed), count=len(replies))
    finally:
        plain.finish()
    traced_wall = sum(reply["elapsed"] for _, reply in replies)
    plain_wall = sum(reply["elapsed"] for _, reply in plain_replies)

    outcomes = grade(replies, reference)
    metrics = {name: (layers[name], unit) for name, unit in tracer.METRICS.items()}
    metrics["trace.queries"] = (len(replies), "count")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    notes = [f"engine time {traced_wall:.3f} s traced, {plain_wall:.3f} s untraced "
             f"for the same {len(replies)} queries", f"spans written to {trace_file}"]
    return outcomes, metrics, notes


def probe_run(workload, reference) -> list[Outcome]:
    """Ask the workload's known-failing inputs in a fresh, untraced worker."""
    probes = workload.probes()
    if not probes:
        return []
    worker = Worker(workload)
    try:
        replies = closed_loop(worker, probes)
    finally:
        worker.finish()
    return grade(replies, reference)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polycoh" / "__init__.py").is_file():
        print(f"benchmark: no polycoh sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from reference import Reference
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    reference = Reference()
    if args.trace:
        out_dir = ROOT / ".bench_build"
        out_dir.mkdir(exist_ok=True)
        trace_file = str(out_dir / f"trace-{workload.name}.spans")
        outcomes, metrics, notes = traced_run(workload, args.seed, args.seconds, reference, trace_file)
    else:
        outcomes, metrics, notes = measured_run(workload, args.seed, args.seconds, reference)
    probed = probe_run(workload, reference)
    probe_failures = [o for o in probed if o.failed]
    if args.trace:
        metrics["hostile.failed"] = (len(probe_failures), "count")

    attempted = len(outcomes)
    failures = [o for o in outcomes if o.failed]
    # A wrong verdict is wrong whether or not the query was timed.
    wrong = [o for o in failures + probe_failures if o.status == "wrong"]
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{attempted} attempted, {len(failures)} failed, {len(wrong)} wrong")
    if not args.trace:
        metrics["failed_share"] = (len(failures) / attempted, "ratio")
        metrics["wrong_verdicts"] = (len(wrong), "count")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for o in failures:
        print(f"  failed [{o.status}] {o.query.label}: {o.detail}")
    if probed:
        print(f"  hostile inputs, asked after the timed loop: {len(probe_failures)} of "
              f"{len(probed)} failed")
    for o in probed:
        print(f"  hostile [{o.status}] {o.query.label}: {o.detail or 'correct verdict'}")

    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                if name not in ("failed_share", "wrong_verdicts")}
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
