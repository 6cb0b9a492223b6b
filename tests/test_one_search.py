"""One search per query, and no list of decompositions.

Every realizability query reads its prime set, its per-prime verdicts and
its witnesses from one candidate list, walked without ever listing the
decompositions (``decompose`` is never called), and looks up each distinct
part's prime set at most once.  The catalog's one pass over its rows builds
that list with each candidate's degrees, which no query works out again.
The finite ring spec is checked against a copy of the per-prime path it
replaced, which searched once per listed prime, and reads its verdicts off
the prime set, walking only at the listed primes that lie in it.
"""

from collections import Counter
from importlib import import_module

import pytest
from test_golden_cli import NAMED

from polycoh.catalog import Catalog
from polycoh.cli import parse_degrees, parse_ring
from polycoh.decompose import decompose, decompose_at_prime
from polycoh.ntheory import primes_below
from polycoh.realizability import (
    PrimeSpec,
    congruence_classes,
    prime_set_of_type,
    realizable_at_prime,
    realizable_over,
)
from polycoh.residues import ALL_PRIMES
from polycoh.verify import even_degree_multisets

# The modules themselves: the attribute polycoh.decompose is the function.
DECOMPOSE = import_module("polycoh.decompose")
REALIZABILITY = import_module("polycoh.realizability")

PRIMES_50 = tuple(primes_below(50))

RINGS = (
    "Z",
    "Z[1/6]",
    "F_3",
    "primes=" + ",".join(map(str, PRIMES_50)),
    "primes=mod:12:1,5,7,11",
)

TYPES = ("", "4,6", "4,12", "12,16", "4,4,8,12", "4,6,8,12,16", "SU(5)+Sp(2)", "Spin(8)+D_10")


@pytest.fixture
def counted(monkeypatch):
    """Counts decomposition listings, passes over the catalog, unions of the
    prime set walk and prime-set lookups per part; ``counts.clear()`` starts
    a new query."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    lookup = Catalog.prime_set_of

    def counting_lookup(self, inst):
        counts[inst] += 1
        return lookup(self, inst)

    for name in ("decompose", "decompose_at_prime"):
        monkeypatch.setattr(DECOMPOSE, name, counting("listing", getattr(DECOMPOSE, name)))
    monkeypatch.setattr(REALIZABILITY, "union", counting("union", REALIZABILITY.union))
    monkeypatch.setattr(
        Catalog, "candidate_table", counting("pass", Catalog.candidate_table)
    )
    monkeypatch.setattr(Catalog, "prime_set_of", counting_lookup)
    return counts


def _assert_one_search(counts, query):
    lookups = {part: n for part, n in counts.items() if not isinstance(part, str)}
    assert counts["listing"] == 0, query
    assert counts["pass"] == 1, query
    assert max(lookups.values(), default=0) <= 1, (query, lookups)


@pytest.mark.parametrize("text", TYPES)
def test_every_query_searches_once(cat, counted, text):
    target = parse_degrees(text, cat)
    counted.clear()
    prime_set_of_type(cat, target)
    _assert_one_search(counted, "prime_set_of_type")
    for p in (2, 3, 5):
        counted.clear()
        realizable_at_prime(cat, target, p)
        _assert_one_search(counted, f"realizable_at_prime {p}")
    for ring in RINGS:
        spec = parse_ring(ring)
        counted.clear()
        realizable_over(cat, target, spec)
        _assert_one_search(counted, f"realizable_over {ring}")


def test_no_query_works_out_a_candidates_degrees_again(cat, monkeypatch):
    targets = [parse_degrees(text, cat) for text in TYPES]
    specs = [parse_ring(ring) for ring in RINGS]

    def refuse(self, inst):
        raise AssertionError(f"degrees_of({inst.name}) called")

    monkeypatch.setattr(Catalog, "degrees_of", refuse)
    for target in targets:
        prime_set_of_type(cat, target)
        congruence_classes(cat, target)
        decompose(cat, target)
        for p in (2, 3, 5):
            realizable_at_prime(cat, target, p)
            decompose_at_prime(cat, target, p)
        for spec in specs:
            realizable_over(cat, target, spec)


def test_finite_spec_walks_only_at_listed_primes_of_the_prime_set(cat, monkeypatch):
    walked = []
    witness = REALIZABILITY._Search.witness

    def recording(self, p):
        walked.append(p)
        return witness(self, p)

    monkeypatch.setattr(REALIZABILITY._Search, "witness", recording)
    spec = PrimeSpec.finite(PRIMES_50)
    for text in TYPES + ("12", "4,10", "G_24", "E_8"):
        target = parse_degrees(text, cat)
        ps = prime_set_of_type(cat, target)
        walked.clear()
        report = realizable_over(cat, target, spec)
        assert walked == [p for p in PRIMES_50 if p in ps], text
        assert sorted(report.witnesses) == walked, text


def _old_witness(cat, target, p):
    decs = decompose_at_prime(cat, target, p)
    return decs[0] if decs else None


def test_finite_spec_matches_the_per_prime_path(cat):
    spec = PrimeSpec.finite(PRIMES_50)
    targets = [list(ms) for ms in even_degree_multisets(16, 3)]
    targets += [list(parse_degrees(name, cat).degrees) for name in NAMED]
    for target in targets:
        old = {p: _old_witness(cat, target, p) for p in PRIMES_50}
        failing = [p for p, dec in old.items() if dec is None]
        report = realizable_over(cat, target, spec)
        assert report.verdict == (not failing), target
        assert report.failing_prime == (failing[0] if failing else None), target
        assert report.witnesses == {p: dec for p, dec in old.items() if dec is not None}, target


def test_prime_set_stops_once_it_holds_every_prime(cat, counted):
    # SU(8)+SU(8) has 7,588 decompositions.  The walk branches on 16 and
    # tries the parts that occur at every prime first, so its first leaf,
    # SU(8) + SU(8), already holds every prime: one union, and no part is
    # looked up twice.
    target = parse_degrees("SU(8)+SU(8)", cat)
    counted.clear()
    assert prime_set_of_type(cat, target) == ALL_PRIMES
    assert counted["union"] == 1
    looked_up = {part: n for part, n in counted.items() if not isinstance(part, str)}
    assert cat.lookup("SU(8)") in looked_up
    assert max(looked_up.values()) == 1
