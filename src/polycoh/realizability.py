"""Realizability verdicts for even-degree polynomial types.

A type is realizable over a coefficient ring exactly when, at every prime
that is not a unit in the ring, it decomposes into catalog entries
occurring at that prime.  Consequently the primes at which a type is
realizable form a finite union of congruence classes -- the union over all
decompositions of the intersection of the parts' prime sets, found here by
branch-and-bound without listing the decompositions -- and a ring enters
the story only through its set of non-unit primes, described by a
:class:`PrimeSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import count
from typing import Callable

from .catalog import Catalog, DegreeMultiset
from .decompose import Decomposition, walk
from .errors import InvalidParametersError
from .ntheory import (
    ensure_prime,
    ensure_probable_prime,
    is_prime,
    prime_factors,
    primes_below,
)
from .residues import (
    ALL_PRIMES,
    NO_PRIMES,
    ResidueSet,
    as_json_dict,
    class_contains_prime,
    intersect,
    make,
    normalize,
    prime_subset,
    union,
)

# Scan bound for exhibiting a concrete failing prime from a listable spec;
# past it the exact class-level certificate is reported instead.
WITNESS_PRIME_BOUND = 10**6


@dataclass(frozen=True)
class PrimeSpec:
    """The set of primes that are not units in the coefficient ring.

    Variants: an explicit finite list ("finite"), all primes outside a
    finite list ("cofinite", every prime when the list is empty), or a
    residue-class set ("listable").
    """

    kind: str
    primes: tuple[int, ...] = ()
    classes: ResidueSet | None = None

    @staticmethod
    def all_primes() -> "PrimeSpec":
        return PrimeSpec("cofinite")

    @staticmethod
    def finite(primes) -> "PrimeSpec":
        return PrimeSpec("finite", _validated_primes(primes))

    @staticmethod
    def cofinite(excluded) -> "PrimeSpec":
        # An excluded prime is only compared with primes the engine finds
        # itself, so a strong probable prime past PRIME_TEST_BOUND cannot
        # change a verdict.
        excluded = {ensure_probable_prime(p) for p in excluded}
        return PrimeSpec("cofinite", tuple(sorted(excluded)))

    @staticmethod
    def listable(classes: ResidueSet) -> "PrimeSpec":
        return PrimeSpec("listable", (), normalize(classes))

    def describe(self) -> str:
        if self.kind == "finite":
            return "primes {" + ", ".join(map(str, self.primes)) + "}"
        if self.kind == "cofinite":
            if not self.primes:
                return "all primes"
            return "all primes except {" + ", ".join(map(str, self.primes)) + "}"
        c = self.classes
        if not c.residues:
            return "no primes"
        return f"primes in {sorted(c.residues)} mod {c.modulus}"


def _validated_primes(primes) -> tuple[int, ...]:
    return tuple(sorted({ensure_prime(p) for p in primes}))


@dataclass
class RealizabilityReport:
    """Outcome of a realizability query: verdict, classes, and evidence."""

    target: DegreeMultiset
    spec: PrimeSpec
    verdict: bool
    prime_set: ResidueSet
    witnesses: dict[int, Decomposition] = field(default_factory=dict)
    failing_prime: int | None = None
    failing_class: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "degrees": list(self.target.degrees),
            "verdict": self.verdict,
            "primeSet": as_json_dict(self.prime_set),
            "witnesses": {
                str(p): list(dec.names) for p, dec in sorted(self.witnesses.items())
            },
        }
        if self.failing_prime is not None:
            doc["failingPrime"] = self.failing_prime
        if self.failing_class is not None:
            residue, modulus = self.failing_class
            doc["failingClass"] = {"residue": residue, "modulus": modulus}
        return doc


class _Search:
    """The one search behind a query: the target's candidates, listed once,
    and each part's prime set, looked up once.  The prime set and the
    witnesses both read :func:`walk` over them; neither lists the
    decompositions."""

    def __init__(self, cat: Catalog, target) -> None:
        self.target = DegreeMultiset.of(target)
        self.table = cat.candidate_table(self.target)
        self.part_primes = cache(cat.prime_set_of)

    def prime_set(self) -> ResidueSet:
        """The union over decompositions of the intersection of their parts'
        sets, by depth-first branch-and-bound.

        The walk reads each part as its prime set, those that occur at
        every prime first, and folds the running intersection along each
        branch.  A branch whose running intersection lies in the union found
        so far, prime by prime, cannot enlarge it and is pruned, so the
        union stays exact.
        """
        table = [(self.part_primes(inst), need) for inst, need in self.table]
        table.sort(key=lambda c: c[0] != ALL_PRIMES)
        found = NO_PRIMES
        inside = {}  # running set -> whether it lies in found, until found grows

        def covered(run: ResidueSet, leaf: bool) -> bool:
            if run not in inside:
                inside[run] = prime_subset(run, found)
            return inside[run]

        for run in walk(table, self.target, cache(intersect), ALL_PRIMES, covered):
            found = union(found, run)
            if found == ALL_PRIMES:
                break
            inside.clear()
        return found

    def witness(self, p: int) -> Decomposition | None:
        """The canonical first decomposition whose parts all occur at ``p``,
        or None: a walk over the candidates that occur at ``p`` only, which
        drops every branch with more parts than the best leaf found."""
        at_p = [c for c in self.table if p in self.part_primes(c[0])]
        best = None

        def longer(chosen: tuple, leaf: bool) -> bool:
            return best is not None and len(chosen) + (not leaf) > len(best.parts)

        for chosen in walk(at_p, self.target, prune=longer):
            dec = Decomposition.of(chosen)
            if best is None or dec.sort_key() < best.sort_key():
                best = dec
        return best


def prime_set_of_type(cat: Catalog, target) -> ResidueSet:
    """The canonical residue-class set of primes at which ``target`` is
    realizable: union over decompositions of the intersection over parts of
    their occurrence sets.  The empty type is realizable at every prime.
    """
    return _Search(cat, target).prime_set()


def realizable_at_prime(
    cat: Catalog, target, p: int
) -> tuple[bool, Decomposition | None]:
    """Verdict at a single prime, with the canonical first witness."""
    ensure_prime(p)
    wit = _Search(cat, target).witness(p)
    return wit is not None, wit


def realizable_over(cat: Catalog, target, spec: PrimeSpec) -> RealizabilityReport:
    """Verdict over a ring described by its non-unit primes.

    True exactly when every prime of the spec lies in the type's prime set.
    On failure a concrete failing prime is exhibited whenever one exists
    (always for the finite and cofinite variants, all primes being the
    cofinite spec that excludes nothing); a listable spec whose difference
    contains no prime below the scan bound carries the offending residue
    class instead.
    """
    search = _Search(cat, target)
    ps = search.prime_set()
    report = RealizabilityReport(search.target, spec, False, ps)

    if spec.kind == "cofinite":
        excluded = set(spec.primes)
        report.failing_prime = _uncovered_prime(ps, excluded)
        if report.failing_prime is None:
            p0 = _first_prime(ALL_PRIMES, lambda p: p not in excluded)
            report.witnesses[p0] = search.witness(p0)
    elif spec.kind == "finite":
        # A listed prime has a witness exactly when it lies in ps.
        report.failing_prime = next((p for p in spec.primes if p not in ps), None)
        report.witnesses = {p: search.witness(p) for p in spec.primes if p in ps}
    elif spec.kind == "listable":
        if prime_subset(spec.classes, ps):
            p0 = _first_prime(spec.classes, bound=WITNESS_PRIME_BOUND)
            if p0 is not None:
                report.witnesses[p0] = search.witness(p0)
        else:
            report.failing_prime = _first_prime(
                spec.classes, lambda p: p not in ps, bound=WITNESS_PRIME_BOUND
            )
            if report.failing_prime is None:
                report.failing_class = _offending_class(spec.classes, ps)
    else:
        raise InvalidParametersError(f"unknown prime spec kind {spec.kind!r}")
    report.verdict = report.failing_prime is None and report.failing_class is None
    return report


def congruence_classes(cat: Catalog, target) -> tuple[int, list[int]]:
    """The canonical (modulus, ascending residues) answer: a type is
    realizable over a ring iff every non-unit prime is congruent to one of
    the residues modulo the modulus."""
    c = prime_set_of_type(cat, target)
    return c.modulus, sorted(c.residues)


def _first_prime(
    s: ResidueSet, keep: Callable[[int], bool] | None = None, bound: int | None = None
) -> int | None:
    """Smallest prime of ``s`` below ``bound`` that passes ``keep``, or None.

    One ascending walk over the primes, tested against ``s`` inline and
    against ``keep`` only once they lie in ``s``; a set of no classes is
    not walked.  Without a bound the caller must know that such a prime
    exists.
    """
    if not s.residues:
        return None
    primes = filter(is_prime, count(2)) if bound is None else primes_below(bound)
    m, residues = s.modulus, s.residues
    for p in primes:
        if p % m in residues and (keep is None or keep(p)):
            return p
    return None


def _uncovered_prime(ps: ResidueSet, excluded: set[int]) -> int | None:
    """Smallest prime outside ``ps`` and ``excluded``, or None.

    Decided at the class level: if ps holds every unit class mod N, only
    the primes dividing N can lie outside it; otherwise a unit class outside
    ps holds infinitely many primes, so the scan ends.
    """

    def fails(p: int) -> bool:
        return p not in ps and p not in excluded

    factors = prime_factors(ps.modulus)
    if prime_subset(ALL_PRIMES, make(ps.modulus, [*ps.residues, *factors])):
        return next(filter(fails, factors), None)
    return _first_prime(ALL_PRIMES, fails)


def _offending_class(classes: ResidueSet, ps: ResidueSet) -> tuple[int, int]:
    """Smallest prime-bearing class of the difference classes \\ ps.

    The classes mod L = lcm(M, N) over a mod M are a, a + M, ... below L;
    each residue of ``classes`` is walked up to its first class that lies
    outside ``ps`` and holds a prime, or to the best found so far: at most
    N / gcd(M, N) steps each and no set mod L, so L is not capped.
    """
    m, n = classes.modulus, ps.modulus
    l = math.lcm(m, n)
    best = None
    for a in classes.residues:
        for x in range(a, l if best is None else min(best, l), m):
            if x % n not in ps.residues and class_contains_prime(x, l):
                best = x
                break
    if best is None:  # pragma: no cover - guarded by prime_subset
        raise RuntimeError("no offending class found although prime_subset failed")
    return (best, l)
