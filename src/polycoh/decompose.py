"""Enumeration of all ways to write a type as a union of catalog entries.

A decomposition is a multiset of entry instances whose degree multisets
union to the target exactly.  The search always branches on the smallest
remaining degree: every part is chosen during the run of steps whose
minimum equals the part's own smallest degree, and within such a run parts
are required to appear in non-decreasing instance order.  That yields each
decomposition exactly once with no post-hoc deduplication.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .catalog import Catalog, DegreeMultiset, EntryInstance
from .ntheory import ensure_prime
from .residues import contains_prime


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


def decompose(cat: Catalog, target) -> list[Decomposition]:
    """All decompositions of ``target``, canonically ordered.

    The empty target has exactly one decomposition, the empty one.  Output
    is sorted by part count, then lexicographically on the part names, and
    is independent of the input degree order.
    """
    target = DegreeMultiset.of(target)
    by_min: dict[int, list[tuple[tuple, EntryInstance, Counter]]] = {}
    for inst in cat.candidates(target):
        degs = cat.degrees_of(inst).degrees
        by_min.setdefault(degs[0], []).append((inst.sort_key, inst, Counter(degs)))
    for bucket in by_min.values():
        bucket.sort(key=lambda item: item[0])

    # Depth-first over frames (remaining degrees, previous minimum, previous
    # key, parts chosen so far): an explicit stack, as the depth is unbounded.
    decs = []
    stack = [(target.counter(), None, None, ())]
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


def decompose_at_prime(cat: Catalog, target, p: int) -> list[Decomposition]:
    """The decompositions of ``target`` all of whose parts occur at ``p``."""
    ensure_prime(p)
    out = []
    for dec in decompose(cat, target):
        if all(contains_prime(cat.prime_set_of(part), p) for part in dec.parts):
            out.append(dec)
    return out
