"""Seeded query streams for the four benchmark workloads.

Every input is generated here from the seed alone; the engine only ever
sees the resulting degree lists, primes, group parameters and CLI argument
vectors.  Degrees of named catalog entries come from the benchmark's own
table (entries.py), not from the package's parser, so a change to the
parser cannot change the inputs.

Heavy-tailed workloads draw from curated pools through seeded decks
(successive seeded shuffles of a pool), so that every run covers each pool
about evenly and the run-to-run spread comes from order and mix, not from
one unlucky draw of a multi-second query.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from entries import spec_degrees

# ---------------------------------------------------------------------------
# Queries and workloads.


@dataclass(frozen=True)
class Query:
    """One top-level call.

    ``op`` selects the call in the worker; ``args`` are its JSON-able
    arguments.  ``target`` is the degree multiset the query is about, known
    independently of the engine.  ``expect`` holds hand-written fields the
    JSON output must carry; ``scan`` says whether the per-prime reference
    scan applies (it is skipped only for inputs too large for it).
    """

    op: str
    args: tuple
    label: str
    target: tuple[int, ...] = ()
    expect: dict | None = None
    scan: bool = True

    def message(self, qid: int) -> dict:
        return {"id": qid, "op": self.op, "args": list(self.args)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    time_limit_s: float
    tail_percentile: float
    stream: Callable[[random.Random], Iterator[Query]]
    # Queries asked once at the start of every run, before the stream.
    fixed: Callable[[random.Random], list[Query]] = field(default=lambda rng: [])
    # Inputs that failed when the benchmark was defined, asked after the
    # timed loop in a worker of their own: their outcomes are reported on
    # their own, so that the timed queries are ones on which no operation
    # fails.
    probes: Callable[[], list[Query]] = field(default=lambda: [])


def _deck(rng: random.Random, items) -> Iterator:
    """Endless draws from ``items``: successive seeded shuffles."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# ---------------------------------------------------------------------------
# sweep: small types, over Z and at p = 3.

def small_types() -> list[tuple[int, ...]]:
    """Every multiset of one to four even degrees up to 30."""
    values = range(2, 31, 2)
    return [t for k in range(1, 5) for t in itertools.combinations_with_replacement(values, k)]


def sweep_stream(rng: random.Random) -> Iterator[Query]:
    """Passes over all small types in seeded order, each asked over Z and at
    p = 3; a run covers the space about twice, so its mix barely depends on
    the seed."""
    for degrees in _deck(rng, small_types()):
        text = ",".join(map(str, degrees))
        yield Query("over_z", (list(degrees),), f"over Z: {text}", degrees)
        yield Query("at_prime", (list(degrees), 3), f"at p=3: {text}", degrees)


# ---------------------------------------------------------------------------
# primesets: congruence classes of heavier types.

# The pool: single entries (exceptional groups, SU/Sp/Spin up to rank ~10,
# sporadics, G(m,r,n)), unions of two or three entries, and small bases
# extended by one degree 2m with m divisor-rich (60..840), in ascending order
# of their cost when the benchmark was defined.
_PRIME_POOL = (
    "Sp(3)", "SU(5)", "Sp(4)", "SU(6)", "G_2", "SU(7)", "G(5,5,4)", "G(6,3,3)",
    "Sp(5)", "G(12,4,3)", "Spin(8)", "G_24", "G(10,1,3)", "G_14", "G_9",
    "G(4,1,4)", "G(8,2,4)", "SU(8)", "Sp(6)", "G_29", "G_31", "G_21", "G_17",
    "G_32", "SU(9)", "F_4", "G_33", "G(6,3,3)+120", "SU(3)+120", "G_30",
    "Spin(10)", "Sp(7)", "Spin(12)", "G_2+120", "SU(10)", "G(6,3,3)+240",
    "G_31+120", "Sp(3)+120", "SU(5)+120", "Spin(8)+120", "SU(3)+240",
    "G(4,1,4)+120", "E_6", "G(6,3,3)+360", "Sp(3)+240", "G_12+Sp(5)",
    "F_4+120", "G_2+240", "SU(3)+360", "G_34", "Sp(8)", "G_31+240",
    "G(6,3,3)+Sp(4)", "G(6,3,3)+480", "G_21+F_4", "G_32+G_32", "F_4+240",
    "SU(5)+240", "SU(3)+480", "E_6+240", "Spin(8)+240", "G(4,1,4)+240",
    "G_2+480", "G_31+360", "Spin(8)+SU(5)", "G_2+360", "E_6+120", "Sp(3)+360",
    "G(4,1,4)+360", "G(10,1,3)+G(12,4,3)+G_21", "G_34+240", "G_14+G_33",
    "G(4,1,4)+480", "G(6,3,3)+720", "SU(5)+360", "G_34+120", "Spin(8)+360",
    "G_31+480", "Sp(5)+120", "E_7", "F_4+360", "Sp(3)+480", "SU(3)+720",
    "G_2+720", "E_6+360", "Sp(5)+240", "Spin(8)+480", "G_34+360", "E_6+480",
    "SU(3)+840", "Spin(14)", "F_4+480", "SU(4)+G_22+G(10,1,3)", "G_34+480",
    "G(4,1,4)+720", "G_31+720", "SU(8)+120", "SU(4)+G_33", "G(6,3,3)+840",
    "Spin(12)+120", "G_2+840", "SU(5)+480", "Sp(5)+360", "SU(5)+720",
    "G_31+840", "Spin(12)+240", "Sp(3)+720", "G(4,1,4)+840", "E_6+720",
    "G_23+Spin(12)", "F_4+840", "Sp(5)+480", "Spin(8)+720", "Spin(12)+360",
    "Sp(3)+840", "F_4+720", "G_29+F_4", "SU(8)+240", "SU(5)+840",
    "G(10,1,3)+Spin(10)", "G_34+720", "Spin(12)+480", "Spin(8)+840",
    "G(6,3,3)+1440", "G_34+840", "SU(3)+1440", "Spin(16)", "E_7+120",
    "Sp(5)+720", "G_2+1440", "E_6+840", "G_31+1440", "SU(8)+360", "E_7+240",
    "F_4+G(8,2,4)", "Spin(8)+G_31", "E_7+720", "G_30+D_30+G_21", "SU(3)+1680",
    "G(6,3,3)+1680", "SU(8)+480", "G_21+G(4,1,4)+G_2", "G_31+1680",
    "Spin(12)+720", "Sp(5)+840", "G(4,1,4)+1440", "E_7+360", "G_2+1680",
    "E_7+840", "Spin(12)+840", "E_6+1440", "Sp(3)+1440", "F_4+1440", "E_8",
    "G_31+G_33", "G_34+SU(3)", "G_34+1680", "G(4,1,4)+1680",
    "SU(8)+840", "G_21+E_7", "F_4+1680", "Spin(8)+1440", "E_7+480",
    "SU(8)+720", "SU(5)+1440", "Sp(3)+1680", "Spin(8)+1680", "G_34+1440",
    "SU(5)+1680", "Spin(12)+1440", "Sp(5)+1440", "E_6+1680", "Sp(5)+1680",
    "SU(6)+G(5,5,4)+Sp(2)", "E_7+1440", "Spin(12)+1680", "E_7+1680", "F_4+E_6",
    "SU(8)+1440", "SU(3)+Spin(14)", "SU(8)+1680", "E_6+D_30+SU(3)",
)

# The slow class: lcm-bound queries of one to a few seconds (m up to 2000),
# drawn as one more group of the pass.
_PRIME_SLOW = (
    "SU(10)+1440",
    "SU(10)+2520",
    "SU(10)+3360",
    "SU(8)+4000",
    "E_7+2000",
    "G_34+4000",
    "Spin(18)",
)

_GROUP = 8


def _classes(spec: str) -> Query:
    degrees = spec_degrees(spec)
    return Query("classes", (list(degrees),), f"classes: {spec}", degrees)


def primesets_pinned(rng: random.Random) -> list[Query]:
    """SU(8)+SU(8), a search-bound union with 7,588 decompositions, once per
    run: it sets the workload's peak memory, which would otherwise depend on
    whether a run happened to draw it."""
    return [_classes("SU(8)+SU(8)")]


def primesets_stream(rng: random.Random) -> Iterator[Query]:
    """Passes drawing one query from each group of _GROUP pool neighbours in
    cost and one from the slow class.  Each group is a seeded deck, so a
    run's queries differ by seed but its cost profile barely does."""
    groups = [_PRIME_POOL[i : i + _GROUP] for i in range(0, len(_PRIME_POOL), _GROUP)]
    decks = [_deck(rng, group) for group in groups + [_PRIME_SLOW]]
    while True:
        batch = [next(deck) for deck in decks]
        rng.shuffle(batch)
        yield from map(_classes, batch)


# ---------------------------------------------------------------------------
# rings: CLI check/witness over every ring syntax, plus hostile inputs.

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_RING_TYPES = (
    "G_2", "F_4", "E_6", "E_7", "S^1", "G_24", "G_12", "G_31",
    "SU(3)", "SU(6)", "SU(8)", "SU(10)", "Sp(2)", "Sp(5)", "Spin(8)", "Spin(14)",
    "G(6,3,3)", "D_30", "C_12", "4,4+C_6", "SU(5)+Sp(2)", "Sp(2)+Spin(8)",
    "SU(5)+240", "E_6+G_2",
)


def _cli(argv: list[str], label: str, target, expect=None, scan=True) -> Query:
    return Query("cli", (argv,), label, tuple(target), expect, scan)


def _check(degrees: str, ring: str, expect=None, scan=True) -> Query:
    argv = ["check", "--degrees", degrees, "--ring", ring, "--format", "json"]
    shown = degrees if len(degrees) <= 40 else degrees[:37] + "..."
    return _cli(argv, f"check {shown} over {ring}", spec_degrees(degrees), expect, scan)


def _witness(degrees: str, prime: int, expect=None) -> Query:
    argv = ["witness", "--degrees", degrees, "--prime", str(prime), "--format", "json"]
    return _cli(argv, f"witness {degrees} at p={prime}", spec_degrees(degrees), expect)


# Cases from the README and the acceptance tests, with verdicts written by
# hand from the mathematics, not from any run of the engine.
def _known_cases() -> list[Query]:
    return [
        _check("4,6", "Z", {"verdict": True, "witnesses": {"2": ["SU(3)"]}}),
        _check("4,12", "Z", {"verdict": False, "failingPrime": 2,
                             "primeSet": {"modulus": 2, "residues": [1]}}),
        _check("Spin(8)", "Z[1/2]", {"verdict": True, "witnesses": {"3": ["Spin(8)"]}}),
        _check("Spin(8)", "Z", {"verdict": False, "failingPrime": 2}),
        _check("4,12", "F_3", {"verdict": True, "witnesses": {"3": ["G_2"]}}),
        _witness("4,12", 3, {"realizable": True, "witness": ["G_2"]}),
        _check("12,16", "Z", {"verdict": False, "failingPrime": 2,
                              "primeSet": {"modulus": 8, "residues": [1, 3]}}),
        _check("2", "Q", {"verdict": True, "witnesses": {}}),
    ]


# Inputs that fail at the seed (crash, run out of memory or run for
# minutes).  They are asked in every run, after the timed loop; each costs
# at most the time limit.
def hostile_cases() -> list[Query]:
    return [
        _check(",".join(["2"] * 1100), "Z", {"verdict": True}, scan=False),
        _check("16000", "Z", {"verdict": False, "failingPrime": 2}, scan=False),
        _check("4,12", "primes=mod:100000007:1,2",
               {"verdict": False, "failingPrime": 2}, scan=False),
        _check("4,6", "primes=mod:2305843009213693951:1",
               {"verdict": True, "witnesses": {}}, scan=False),
        _check("SU(40)+2000", "Z", {"verdict": False, "failingPrime": 2}, scan=False),
    ]


def rings_pinned(rng: random.Random) -> list[Query]:
    """Spin(14) (eight classes mod 14) over the user modulus 199,999, coprime
    to 14 and twice the largest modulus the stream draws, once per run: its
    lift to the lcm sets the workload's peak memory, which would otherwise
    depend on the moduli a run drew and on how full the engine's caches were
    when it drew them."""
    residues = sorted(rng.sample(range(199_999), 4))
    return [_check("Spin(14)", "primes=mod:199999:" + ",".join(map(str, residues)))]


def _render_degrees(rng: random.Random, spec: str) -> str:
    """The type either as given or as a plain comma list."""
    if rng.random() < 0.5:
        return spec
    return ",".join(map(str, spec_degrees(spec)))


def _ring(rng: random.Random, slot: str, index: int) -> str:
    """A ring of the given syntax; its parameters are seeded draws."""
    if slot == "Z":
        return "Q" if index % 3 == 0 else "Z"
    if slot == "F_p":
        return f"F_{rng.choice(_SMALL_PRIMES)}"
    if slot == "Z[1/k]":
        ks = rng.sample(range(2, 31), rng.randint(1, 2))
        return "Z[" + ",".join(f"1/{k}" for k in ks) + "]"
    if slot == "primes":
        # The list length, which sets the cost, is tied to the type.
        listed = rng.sample(_SMALL_PRIMES, 1 + index % len(_SMALL_PRIMES))
        return "primes=" + ",".join(map(str, listed))
    n = rng.randint(2, 100) if slot == "mod_small" else rng.randint(10_000, 100_000)
    residues = sorted({rng.randrange(n) for _ in range(rng.randint(1, 4))})
    return f"primes=mod:{n}:" + ",".join(map(str, residues))


_RING_SLOTS = ("Z", "F_p", "Z[1/k]", "primes", "mod_small", "mod_large")


def rings_stream(rng: random.Random) -> Iterator[Query]:
    """Passes of: the known cases, and for every type of the pool one check
    over each ring syntax plus one witness, in seeded order."""
    while True:
        batch = _known_cases()
        for index, spec in enumerate(_RING_TYPES):
            for slot in _RING_SLOTS:
                batch.append(_check(_render_degrees(rng, spec), _ring(rng, slot, index)))
            batch.append(_witness(_render_degrees(rng, spec), rng.choice(_SMALL_PRIMES)))
        rng.shuffle(batch)
        yield from batch


# ---------------------------------------------------------------------------
# molien: the molien-verify sweep plus a seeded handful of larger groups.


def molien_sweep() -> list[tuple[int, int, int]]:
    """The 141 groups of the CLI's molien-verify sweep."""
    runs = []
    for m in range(1, 11):
        for r in [d for d in range(1, m + 1) if m % d == 0]:
            for n in range(1, 4):
                runs.append((m, r, n))
    for m in range(11, 31):
        for r in (1, m):
            runs.append((m, r, 2))
    for m in range(3, 31):
        if (m, 1, 1) not in runs:
            runs.append((m, 1, 1))
    return runs


_MOLIEN_LARGE = (
    (2, 1, 4), (3, 1, 4), (3, 3, 4), (4, 1, 4), (4, 2, 4), (5, 1, 4), (5, 5, 4),
    (6, 1, 4), (6, 2, 4), (6, 3, 4), (6, 6, 4), (2, 1, 5), (2, 2, 5), (3, 1, 5),
    (3, 3, 5), (4, 2, 5), (4, 4, 5),
)


def molien_stream(rng: random.Random) -> Iterator[Query]:
    large = _deck(rng, _MOLIEN_LARGE)
    while True:
        batch = molien_sweep() + [next(large) for _ in range(3)]
        rng.shuffle(batch)
        for m, r, n in batch:
            yield Query("molien", (m, r, n), f"G({m},{r},{n})")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "every small type over Z and at p=3, ~1 ms each: candidate "
            "generation and per-query overhead, no lcm wall; tail p98 of "
            "9,000-21,000 samples",
            time_limit_s=5.0,
            tail_percentile=98.0,
            stream=sweep_stream,
        ),
        Workload(
            "primesets",
            "congruence classes of heavier types, some with one large degree "
            "2m: residue lift/normalize at lcm moduli, a few search-bound "
            "unions; tail p85 of 100-200 samples",
            time_limit_s=60.0,
            tail_percentile=85.0,
            stream=primesets_stream,
            fixed=primesets_pinned,
        ),
        Workload(
            "rings",
            "CLI check/witness over every ring syntax, 5 hostile inputs "
            "reported apart: dispatch, per-prime search, user moduli, parse "
            "and render; tail p90 of 650-1,450 samples",
            time_limit_s=2.0,
            tail_percentile=90.0,
            stream=rings_stream,
            fixed=rings_pinned,
            probes=hostile_cases,
        ),
        Workload(
            "molien",
            "exact Molien verification of the 141-group sweep plus n=4-5 "
            "groups: a path no other workload reaches; tail p98 of 640-1,340 "
            "samples",
            time_limit_s=10.0,
            tail_percentile=98.0,
            stream=molien_stream,
        ),
    )
}
