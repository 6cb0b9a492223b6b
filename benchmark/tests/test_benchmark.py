"""Tests of the benchmark itself.

    python3 -m pytest benchmark/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import polycoh  # noqa: E402
import polycoh.catalog  # noqa: E402
import polycoh.cli  # noqa: E402,F401
import pytest  # noqa: E402

import run  # noqa: E402
from entries import canonical_witness, prime_mask  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Query, Workload  # noqa: E402


# -- tail percentile -------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 90) == 90
    assert run.percentile(samples, 99.5) == 100
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(100, 95) == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000) == 99.5  # 10 beyond; p99.9 leaves 2
    assert run.tail_percentile(1999) == 99  # p99.5 leaves 9
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 85  # p90 leaves 9
    assert run.tail_percentile(19) is None  # even p50 leaves 9


# -- failures are counted --------------------------------------------------


def _sweep_query(degrees):
    return Query("over_z", (list(degrees),), "test", tuple(degrees))


def test_wrong_verdict_counts_as_failed():
    reference = Reference()
    right = {"verdict": False, "witnesses": {}, "failingPrime": 2}
    wrong = {"verdict": True, "witnesses": {"2": ["G_2"]}, "failingPrime": None}
    replies = [
        (_sweep_query((4, 12)), {"status": "ok", "elapsed": 0.001, "value": right, "error": None}),
        (_sweep_query((4, 12)), {"status": "ok", "elapsed": 0.001, "value": wrong, "error": None}),
    ]
    first, second = run.grade(replies, reference)
    assert first.status == "ok" and not first.failed
    assert second.status == "wrong" and second.failed


def test_wrong_prime_set_counts_as_failed():
    reference = Reference()
    query = Query("classes", ([12, 16],), "test", (12, 16))
    ok = {"modulus": 8, "residues": [1, 3]}
    bad = {"modulus": 8, "residues": [1]}
    outcomes = run.grade(
        [(query, {"status": "ok", "elapsed": 0.0, "value": v, "error": None}) for v in (ok, bad)],
        reference,
    )
    assert [o.status for o in outcomes] == ["ok", "wrong"]


def test_timed_out_query_counts_as_failed_and_worker_recovers():
    tight = Workload("tight", "test", time_limit_s=0.05, tail_percentile=50,
                     stream=WORKLOADS["primesets"].stream)
    slow = Query("classes", ([4, 6, 8, 10, 12, 14, 16, 18, 20, 3360],), "slow", ())
    quick = Query("classes", ([4, 12],), "quick", (4, 12))
    worker = run.Worker(tight)
    try:
        replies = run.closed_loop(worker, [slow, quick])
    finally:
        worker.finish()
    timed_out, answered = run.grade(replies, Reference())
    assert timed_out.status == "timeout" and timed_out.failed
    assert answered.status == "ok"
    assert worker.restarts == 0


def test_hostile_inputs_are_probed_apart_from_the_timed_queries():
    rings = WORKLOADS["rings"]
    hostile = {q.label for q in rings.probes()}
    assert len(hostile) == 5
    stream = run._stream(rings, 1)
    assert not hostile & {next(stream).label for _ in range(500)}

    slow = Query("classes", ([4, 6, 8, 10, 12, 14, 16, 18, 20, 3360],), "slow", ())
    tight = Workload("tight", "test", time_limit_s=0.05, tail_percentile=50,
                     stream=WORKLOADS["primesets"].stream, probes=lambda: [slow])
    (outcome,) = run.probe_run(tight, Reference())
    assert outcome.status == "timeout" and outcome.failed


def test_dead_worker_counts_as_failed_and_is_restarted():
    quick = Query("classes", ([4, 12],), "quick", (4, 12))
    worker = run.Worker(WORKLOADS["primesets"])
    try:
        worker.proc.kill()
        worker.proc.wait()
        replies = run.closed_loop(worker, [quick, quick])
    finally:
        worker.finish()
    killed, answered = run.grade(replies, Reference())
    assert killed.status == "killed" and killed.failed
    assert answered.status == "ok"
    assert worker.restarts == 1


def test_rejected_cli_input_counts_as_failed():
    query = Query("cli", (["check", "--degrees", "3", "--ring", "Z"],), "odd degree", (3,))
    reply = {"status": "ok", "elapsed": 0.0, "error": None,
             "value": {"exit": 1, "stdout": "", "stderr": "error: degree 3 is invalid"}}
    (outcome,) = run.grade([(query, reply)], Reference())
    assert outcome.status == "rejected" and outcome.failed


# -- the reference itself --------------------------------------------------


def test_reference_scan_matches_known_prime_sets():
    # {4, 12}: p odd (G_2); {12, 16}: p = 1, 3 mod 8 (G_12); E_8 needs p >= 7.
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    assert prime_mask((4, 12), primes) == 0b11111110
    assert prime_mask((12, 16), primes) == 0b11010010
    assert prime_mask((4, 16, 24, 28, 36, 40, 48, 60), (5, 7)) & 0b10
    assert canonical_witness((4, 12), 3) == ("G_2",)
    assert canonical_witness((4, 8, 8, 12), 3) == ("Spin(8)",)
    assert canonical_witness((4, 12), 2) is None


# -- tracer ----------------------------------------------------------------


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "polycoh" or name.startswith("polycoh."):
            out.update({(name, attr): obj for attr, obj in vars(module).items()})
    out.update({("Catalog", a): o for a, o in vars(polycoh.catalog.Catalog).items()})
    return out


def test_tracer_wraps_consumer_bindings_and_restores_everything():
    before = _bindings()
    original = polycoh.residues.intersect
    tracer = Tracer()
    tracer.install()
    try:
        assert polycoh.realizability.intersect is not original
        assert polycoh.realizability.intersect.__wrapped__ is original
        assert polycoh.residues.intersect is not original
        assert polycoh.catalog.Catalog.candidates.__wrapped__ is before[("Catalog", "candidates")]
        cat = polycoh.builtin()
        polycoh.congruence_classes(cat, [4, 12])
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    metrics = tracer.layer_metrics(queries=1)
    assert metrics["decompose.calls"] == 1
    assert metrics["catalog.candidates_calls"] == 1
    assert metrics["residues.ops"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    # parent 0..10 with children 1..3 and 4..8; grandchild 5..6 inside 4..8
    for parent, start, end in ((-1, 0, 10), (0, 1, 3), (0, 4, 8), (2, 5, 6)):
        tracer.name_id.append(0)
        tracer.parent.append(parent)
        tracer.query.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.self_times() == pytest.approx([4, 2, 3, 1])
