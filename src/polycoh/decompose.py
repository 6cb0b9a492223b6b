"""Decompositions of a type into catalog entries.

A decomposition is a multiset of entry instances whose degree multisets
union to the target exactly.  :func:`walk` is the one search over them,
behind the ``decompose`` listings, the prime sets and the witnesses of
realizability.  It always branches on the largest remaining degree, over
the parts whose own largest degree it is, and within a run of steps on one
degree it never goes back in the caller's order of the parts.  Every part
holding that degree is chosen during its run, so each decomposition is
reached exactly once with no post-hoc deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, sub
from typing import Callable, Iterator

from .catalog import Catalog, DegreeMultiset, EntryInstance
from .errors import SizeLimitError
from .ntheory import ensure_prime

# Largest number of unpruned nodes any one walk may visit before it is
# refused.
SEARCH_NODES = 500_000


@dataclass(frozen=True)
class Decomposition:
    """A multiset of entry instances, stored in canonical order."""

    parts: tuple[EntryInstance, ...]

    @staticmethod
    def of(parts) -> "Decomposition":
        return Decomposition(tuple(sorted(parts, key=lambda p: p.sort_key)))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parts)

    def sort_key(self) -> tuple:
        return (len(self.parts), tuple(p.sort_key for p in self.parts))

    def __str__(self) -> str:
        return " + ".join(self.names) or "(empty product)"


def walk(
    table: list[tuple],
    target: DegreeMultiset,
    fold: Callable = lambda chosen, part: chosen + (part,),
    value=(),
    prune: Callable | None = None,
) -> Iterator:
    """The value folded along each decomposition of ``target`` into the
    parts of ``table``, (part, degree Counter) rows, one per decomposition,
    depth first.

    Each branch starts from ``value`` and folds ``fold(value, part)`` per
    part; by default the value is the tuple of parts chosen.  A frame with
    ``prune(value, leaf)`` true is dropped before it counts as a node, and
    the caller may change what ``prune`` reads between two leaves.  A
    target degree that no part holds ends the walk at once.
    """
    counts = target.counter()
    if not counts.keys() <= {d for _, need in table for d in need}:
        return
    degs = sorted(counts, reverse=True)
    index = {d: i for i, d in enumerate(degs)}
    buckets = [[] for _ in degs]
    for part, need in table:
        row = [0] * len(degs)
        for d, c in need.items():
            row[index[d]] = c
        buckets[index[max(need)]].append((part, tuple(row)))

    # Depth-first over frames (remaining counts, index of the degree branched
    # on, first bucket index allowed, value): an explicit stack, as the depth
    # is unbounded.
    nodes = 0
    stack = [(tuple(counts[d] for d in degs), 0, 0, value)]
    while stack:
        remaining, top, start, value = stack.pop()
        prev_top = top
        while top < len(degs) and not remaining[top]:
            top += 1
        leaf = top == len(degs)
        if prune is not None and prune(value, leaf):
            continue
        nodes += 1
        if nodes > SEARCH_NODES:
            raise SizeLimitError(f"the search passed its limit of {SEARCH_NODES} nodes")
        if leaf:
            yield value
            continue
        bucket = buckets[top]
        for i in reversed(range(start if top == prev_top else 0, len(bucket))):
            part, need = bucket[i]
            if all(map(ge, remaining, need)):
                stack.append((tuple(map(sub, remaining, need)), top, i, fold(value, part)))


def _listing(table: list[tuple], target: DegreeMultiset) -> list[Decomposition]:
    return sorted(map(Decomposition.of, walk(table, target)), key=Decomposition.sort_key)


def decompose(cat: Catalog, target) -> list[Decomposition]:
    """All decompositions of ``target``, canonically ordered.

    The empty target has exactly one decomposition, the empty one.  Output
    is sorted by part count, then lexicographically on the part names, and
    is independent of the input degree order.
    """
    target = DegreeMultiset.of(target)
    return _listing(cat.candidate_table(target), target)


def decompose_at_prime(cat: Catalog, target, p: int) -> list[Decomposition]:
    """The decompositions of ``target`` all of whose parts occur at ``p``."""
    ensure_prime(p)
    target = DegreeMultiset.of(target)
    table = cat.candidate_table(target)
    return _listing([c for c in table if p in cat.prime_set_of(c[0])], target)
