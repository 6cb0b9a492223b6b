"""Benchmark worker: one process that answers queries one at a time.

Usage (started by run.py, never by hand):

    python3 worker.py SRC MEM_MB TIME_LIMIT_S [TRACE_FILE]

The worker caps its own address space at MEM_MB, times ``import polycoh``
plus ``builtin()`` (the set-up time), then reads one JSON query per line on
stdin and writes one JSON answer per line on its original stdout.  Each
query runs under a SIGALRM time limit; a timeout, MemoryError or
RecursionError is reported as the query's outcome and the worker carries on.
With TRACE_FILE, the tracer is installed after set-up, and the message
``{"op": "finish"}`` makes the worker write the spans to TRACE_FILE and
answer with the per-layer metrics.
"""

import os
import resource
import signal
import sys
import time


class QueryTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no engine handler
    catches it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _call(polycoh, cat, op, args):
    """Run one top-level call; return its result in JSON-able form."""
    if op == "over_z":
        report = polycoh.realizable_over(cat, args[0], polycoh.PrimeSpec.all_primes())
        return {
            "verdict": report.verdict,
            "witnesses": {str(p): list(d.names) for p, d in report.witnesses.items()},
            "failingPrime": report.failing_prime,
        }
    if op == "at_prime":
        ok, dec = polycoh.realizable_at_prime(cat, args[0], args[1])
        return {"realizable": ok, "witness": list(dec.names) if ok else None}
    if op == "classes":
        modulus, residues = polycoh.congruence_classes(cat, args[0])
        return {"modulus": modulus, "residues": residues}
    if op == "molien":
        return {"verdict": polycoh.verify_degrees(*args)}
    if op == "cli":
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = polycoh.cli.main(args[0])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    raise ValueError(f"unknown op {op!r}")


def main(argv):
    src, mem_mb, time_limit = argv[1], int(argv[2]), float(argv[3])
    trace_file = argv[4] if len(argv) > 4 else None
    cap = mem_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, src)

    start = time.perf_counter()
    import polycoh

    cat = polycoh.builtin()
    setup_s = time.perf_counter() - start

    import json

    import polycoh.cli

    if not os.path.realpath(polycoh.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"polycoh imported from {polycoh.__file__}, not from {src}")

    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Answers go to the original stdout; anything the engine prints outside
    # a captured CLI call lands on stderr instead of corrupting the protocol.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    signal.signal(signal.SIGALRM, _on_alarm)

    def send(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    send({"ready": True, "setup_s": setup_s})
    queries = 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "finish":
            doc = {"finished": True}
            if tracer is not None:
                tracer.uninstall()
                tracer.write(trace_file)
                doc["layers"] = tracer.layer_metrics(queries)
            send(doc)
            break
        queries += 1
        if tracer is not None:
            tracer.begin_query(msg["id"])
        status, value, error = "ok", None, None
        began = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, time_limit)
            try:
                value = _call(polycoh, cat, msg["op"], msg["args"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            status, error = "timeout", f"time limit of {time_limit:g} s"
        except MemoryError:
            status, error = "memory", f"MemoryError under the {mem_mb} MB cap"
        except RecursionError as exc:
            status, error = "recursion", f"RecursionError: {exc}"
        except Exception as exc:  # recorded as the query's outcome
            status, error = "error", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - began
        if tracer is not None:
            tracer.begin_query(-1)
        send({"id": msg["id"], "status": status, "elapsed": elapsed,
              "value": value, "error": error})


if __name__ == "__main__":
    main(sys.argv)
