"""Prime sets by branch-and-bound and witnesses by a search at p, against
the enumeration they replaced, and the listings against the walk they
replaced.

The first oracle below is the earlier prime-set path kept as test code:
list every decomposition, intersect its parts' sets, and union those.  The
branch-and-bound walk must give the same canonical set (``==``), and the
witness walk the first decomposition that ``decompose_at_prime`` lists.
The second is the earlier smallest-degree-first walk, kept as test code:
``decompose`` and ``decompose_at_prime`` must list what it lists.
"""

import time
from functools import cache, reduce
from importlib import import_module

import pytest
from test_golden_cli import NAMED

from polycoh.catalog import DegreeMultiset
from polycoh.cli import parse_degrees
from polycoh.decompose import Decomposition, decompose, decompose_at_prime
from polycoh.errors import PolycohError, SizeLimitError
from polycoh.ntheory import primes_below
from polycoh.realizability import (
    PrimeSpec,
    prime_set_of_type,
    realizable_at_prime,
    realizable_over,
)
from polycoh.residues import ALL_PRIMES, NO_PRIMES, intersect, union
from polycoh.verify import even_degree_multisets

# The module itself: the attribute polycoh.decompose is the function.
DECOMPOSE = import_module("polycoh.decompose")

HEAVY = ("SU(8)+SU(8)", "Spin(14)+Spin(14)", "E_7+2000", "SU(12)+2000")


def enumerated_prime_set(cat, target):
    """Union over every decomposition of the intersection of its parts'
    prime sets, stopping once it holds every prime."""
    part_primes = cache(cat.prime_set_of)
    out = NO_PRIMES
    for dec in decompose(cat, target):
        out = union(out, reduce(intersect, map(part_primes, dec.parts), ALL_PRIMES))
        if out == ALL_PRIMES:
            break
    return out


def smallest_first_listing(cat, target, p=None):
    """The decompositions of ``target`` (at ``p``, if given) by the earlier
    walk: it always branches on the smallest remaining degree, every part
    is chosen during the run of steps whose minimum equals the part's own
    smallest degree, and within such a run parts appear in non-decreasing
    instance order."""
    target = DegreeMultiset.of(target)
    table = [
        (inst.sort_key, inst, cat.degrees_of(inst).counter())
        for inst in cat.candidates(target)
        if p is None or cat.occurs_at(inst, p)
    ]
    remaining = target.counter()
    if not remaining.keys() <= {d for _, _, need in table for d in need}:
        return []
    by_min = {}
    for item in table:
        by_min.setdefault(min(item[2]), []).append(item)

    decs = []
    stack = [(remaining, None, None, ())]
    while stack:
        remaining, prev_min, prev_key, chosen = stack.pop()
        if not remaining:
            decs.append(Decomposition(tuple(sorted(chosen, key=lambda p: p.sort_key))))
            continue
        d = min(remaining)
        for key, inst, need in by_min.get(d, ()):
            if d == prev_min and key < prev_key:
                continue
            if all(remaining[x] >= c for x, c in need.items()):
                stack.append((remaining - need, d, key, chosen + (inst,)))

    decs.sort(key=Decomposition.sort_key)
    return decs


def _assert_listings_match_the_smallest_first_walk(cat, target):
    assert decompose(cat, target) == smallest_first_listing(cat, target), target
    for p in (2, 3, 5, 7):
        assert decompose_at_prime(cat, target, p) == smallest_first_listing(cat, target, p), (target, p)


def test_listings_equal_the_smallest_first_walk_on_small_types(cat):
    for ms in even_degree_multisets(24, 4):
        _assert_listings_match_the_smallest_first_walk(cat, ms)


@pytest.mark.parametrize("text", NAMED + HEAVY)
def test_listings_equal_the_smallest_first_walk_on_named_types(cat, text):
    _assert_listings_match_the_smallest_first_walk(cat, parse_degrees(text, cat))


def test_prime_sets_equal_the_enumeration_on_small_types(cat):
    for ms in even_degree_multisets(24, 4):
        assert prime_set_of_type(cat, ms) == enumerated_prime_set(cat, ms), ms


@pytest.mark.parametrize("text", NAMED + HEAVY)
def test_prime_sets_equal_the_enumeration_on_named_types(cat, text):
    target = parse_degrees(text, cat)
    assert prime_set_of_type(cat, target) == enumerated_prime_set(cat, target)


def test_witnesses_are_the_first_decomposition_at_the_prime(cat):
    targets = [list(ms) for ms in even_degree_multisets(20, 3)]
    targets += [parse_degrees(text, cat) for text in NAMED]
    for target in targets:
        for p in primes_below(50):
            listed = decompose_at_prime(cat, target, p)
            first = listed[0] if listed else None
            assert realizable_at_prime(cat, target, p) == (first is not None, first), (target, p)


def test_roadmap_walls_are_gone(cat):
    # Generous bounds: the targets are 1 s and 10 ms, and hosts drift 2x.
    start = time.perf_counter()
    report = realizable_over(cat, parse_degrees("SU(40)+2000", cat), PrimeSpec.all_primes())
    assert time.perf_counter() - start < 1
    assert not report.verdict and report.failing_prime == 2
    target = parse_degrees("SU(12)+2000", cat)
    start = time.perf_counter()
    assert realizable_at_prime(cat, target, 3) == (False, None)
    assert time.perf_counter() - start < 0.1


def test_long_runs_of_small_degrees_end_within_their_limits(cat):
    start = time.perf_counter()
    try:
        prime_set_of_type(cat, list(range(6, 82, 2)))
    except PolycohError:
        pass
    assert time.perf_counter() - start < 30


def test_search_node_budget_is_named_when_passed(cat, monkeypatch):
    target = parse_degrees("Spin(14)+Spin(14)", cat)
    assert prime_set_of_type(cat, target) != NO_PRIMES
    monkeypatch.setattr(DECOMPOSE, "SEARCH_NODES", 1000)
    with pytest.raises(SizeLimitError, match="limit of 1000 nodes"):
        prime_set_of_type(cat, target)
    with pytest.raises(SizeLimitError, match="limit of 1000 nodes"):
        decompose(cat, target)
    # The walks at 13 visit 174 nodes each.
    monkeypatch.setattr(DECOMPOSE, "SEARCH_NODES", 100)
    with pytest.raises(SizeLimitError, match="limit of 100 nodes"):
        realizable_at_prime(cat, target, 13)
    with pytest.raises(SizeLimitError, match="limit of 100 nodes"):
        decompose_at_prime(cat, target, 13)
