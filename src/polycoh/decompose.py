"""Decompositions of a type into catalog entries.

A decomposition is a multiset of entry instances whose degree multisets
union to the target exactly.  :func:`walk` finds them: it always branches
on the smallest remaining degree, every part is chosen during the run of
steps whose minimum equals the part's own smallest degree, and within such
a run parts appear in non-decreasing instance order.  That yields each
decomposition exactly once with no post-hoc deduplication.  The
``decompose`` subcommand lists them all; realizability queries only walk
the candidates that occur at a prime, for a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Catalog, DegreeMultiset, EntryInstance
from .errors import SizeLimitError
from .ntheory import ensure_prime

# Largest number of unpruned nodes any one walk may visit, the prime-set
# walk of realizability included, before it is refused.
SEARCH_NODES = 500_000


@dataclass(frozen=True)
class Decomposition:
    """A multiset of entry instances, stored in canonical order."""

    parts: tuple[EntryInstance, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parts)

    def sort_key(self) -> tuple:
        return (len(self.parts), tuple(p.sort_key for p in self.parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Decomposition(" + " + ".join(self.names) + ")" if self.parts else "Decomposition(empty)"


def candidate_table(cat: Catalog, target: DegreeMultiset) -> list[tuple]:
    """The candidates of ``target`` in instance order, as (sort key,
    instance, degree Counter)."""
    return [
        (inst.sort_key, inst, cat.degrees_of(inst).counter())
        for inst in cat.candidates(target)
    ]


def walk(table: list[tuple], target: DegreeMultiset, shortest: bool = False) -> list[Decomposition]:
    """The decompositions of ``target`` into parts of ``table``, canonically
    ordered; with ``shortest``, only the first of them.

    A target degree that no part holds ends the walk at once.  The shortest
    walk prunes every branch that already has as many parts as the best
    leaf found so far.
    """
    remaining = target.counter()
    if not remaining.keys() <= {d for _, _, need in table for d in need}:
        return []
    by_min: dict[int, list[tuple]] = {}
    for item in table:
        by_min.setdefault(min(item[2]), []).append(item)

    # Depth-first over frames (remaining degrees, previous minimum, previous
    # key, parts chosen so far): an explicit stack, as the depth is unbounded.
    decs = []
    bound = math.inf
    nodes = 0
    stack = [(remaining, None, None, ())]
    while stack:
        remaining, prev_min, prev_key, chosen = stack.pop()
        if len(chosen) + bool(remaining) > bound:
            continue
        nodes += 1
        if nodes > SEARCH_NODES:
            raise SizeLimitError(f"the search passed its limit of {SEARCH_NODES} nodes")
        if not remaining:
            if shortest and len(chosen) < bound:
                decs, bound = [], len(chosen)
            decs.append(Decomposition(tuple(sorted(chosen, key=lambda p: p.sort_key))))
            continue
        d = min(remaining)
        for key, inst, need in by_min.get(d, ()):
            if d == prev_min and key < prev_key:
                continue
            if all(remaining[x] >= c for x, c in need.items()):
                stack.append((remaining - need, d, key, chosen + (inst,)))

    decs.sort(key=Decomposition.sort_key)
    return decs[:1] if shortest else decs


def decompose(cat: Catalog, target) -> list[Decomposition]:
    """All decompositions of ``target``, canonically ordered.

    The empty target has exactly one decomposition, the empty one.  Output
    is sorted by part count, then lexicographically on the part names, and
    is independent of the input degree order.
    """
    target = DegreeMultiset.of(target)
    return walk(candidate_table(cat, target), target)


def decompose_at_prime(cat: Catalog, target, p: int) -> list[Decomposition]:
    """The decompositions of ``target`` all of whose parts occur at ``p``."""
    ensure_prime(p)
    target = DegreeMultiset.of(target)
    table = candidate_table(cat, target)
    return walk([c for c in table if cat.occurs_at(c[1], p)], target)
