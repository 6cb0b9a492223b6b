"""Desk-scale cross-checks of the decision engine against brute force.

The checks here deliberately avoid the decomposer: the reference side
builds the realizable multisets directly as unions of explicitly listed
generator types, so agreement is evidence, not circularity.

Two suites are provided.  Over the integers, a type is realizable iff it
is a union of {2} and the degree patterns of SU(n) and Sp(n).  At the
prime 3, the generating patterns are those plus the even spin patterns,
{4, 12}, and {12, 16}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .catalog import Catalog, DegreeMultiset
from .errors import SizeLimitError
from .realizability import PrimeSpec, realizable_at_prime, realizable_over

# The most types one suite may check: C(max_degree // 2 + max_count,
# max_count), the multisets even_degree_multisets yields.  Degrees up to
# 40, at most 4 of them, make 10,626 types, checked in 2-3 s on 2 vCPUs.
MAX_VERIFY_TYPES = 12_000

# The most degrees of a type a suite may check: the integral suite's types
# have up to max_count, the p=3 suite's generator SU(max_degree // 2) has
# max_degree // 2 - 1, and the engine's cost grows faster than the size.
MAX_VERIFY_SIZE = 60


@dataclass
class SuiteResult:
    """Outcome of a verification sweep."""

    name: str
    checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def record(self, degrees, got: bool, expected: bool) -> None:
        self.checked += 1
        if got != expected:
            self.mismatches.append(
                {"degrees": list(degrees), "engine": got, "bruteforce": expected}
            )

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.mismatches)} mismatches"
        return f"{self.name}: {self.checked} checked, {status}"


def count_types(max_degree: int, max_count: int) -> int:
    """How many types even_degree_multisets yields, C(max_degree // 2 +
    max_count, max_count), refused before any is built past MAX_VERIFY_SIZE
    degrees or MAX_VERIFY_TYPES types.  The size is checked first, so the
    count is taken of small numbers only."""
    k = max(max_degree // 2, 0)
    shape = f"degrees up to {max_degree}, at most {max_count} of them, make"
    if max(max_count, k - 1) > MAX_VERIFY_SIZE:
        raise SizeLimitError(
            f"{shape} types of more than MAX_VERIFY_SIZE = {MAX_VERIFY_SIZE} degrees"
        )
    total = math.comb(k + max_count, max_count) if max_count >= 0 else 0
    if total > MAX_VERIFY_TYPES:
        raise SizeLimitError(f"{shape} more than MAX_VERIFY_TYPES = {MAX_VERIFY_TYPES} types")
    return total


def even_degree_multisets(max_degree: int, max_count: int):
    """Every multiset of even degrees <= max_degree with <= max_count
    elements, the empty one included."""
    values = range(2, max_degree + 1, 2)
    for size in range(max_count + 1):
        yield from combinations_with_replacement(values, size)


def multiset_monoid(
    generators: list[tuple[int, ...]], max_count: int
) -> set[tuple[int, ...]]:
    """All multiset unions of the generators with at most max_count
    elements (the empty union included)."""
    out = {()}
    frontier = [()]
    while frontier:
        base = frontier.pop()
        for gen in generators:
            if len(base) + len(gen) <= max_count:
                merged = tuple(sorted(base + gen))
                if merged not in out:
                    out.add(merged)
                    frontier.append(merged)
    return out


def su_type(n: int) -> tuple[int, ...]:
    return tuple(range(4, 2 * n + 1, 2))


def sp_type(n: int) -> tuple[int, ...]:
    return tuple(range(4, 4 * n + 1, 4))


def spin_type(n: int) -> tuple[int, ...]:
    return tuple(sorted([4 * i for i in range(1, n)] + [2 * n]))


def classical_generator_types(max_degree: int) -> list[tuple[int, ...]]:
    """{2} plus every SU(n) and Sp(n) degree pattern within the bound."""
    gens = [(2,)]
    gens += [su_type(n) for n in range(2, max_degree // 2 + 1)]
    gens += [sp_type(n) for n in range(1, max_degree // 4 + 1)]
    return gens


def p3_generator_types(max_degree: int) -> list[tuple[int, ...]]:
    """The generating patterns available at the prime 3."""
    gens = classical_generator_types(max_degree)
    n = 3
    while max(spin_type(n)) <= max_degree:
        gens.append(spin_type(n))
        n += 1
    if 12 <= max_degree:
        gens.append((4, 12))
    if 16 <= max_degree:
        gens.append((12, 16))
    return gens


def check_integral_realizability(
    cat: Catalog, max_degree: int = 24, max_count: int = 4
) -> SuiteResult:
    """Engine verdict over all primes vs. the {2}/SU/Sp union monoid."""
    count_types(max_degree, max_count)
    result = SuiteResult(name="integral realizability")
    allowed = multiset_monoid(classical_generator_types(max_degree), max_count)
    spec = PrimeSpec.all_primes()
    for ms in even_degree_multisets(max_degree, max_count):
        got = realizable_over(cat, DegreeMultiset.of(ms), spec).verdict
        result.record(ms, got, ms in allowed)
    return result


def check_p3_realizability(
    cat: Catalog, max_degree: int = 24, max_count: int = 3
) -> SuiteResult:
    """Two-way check at p = 3.

    Every generator instance must be realizable at 3, and over all small
    multisets the engine verdict at 3 must coincide with membership in the
    union monoid of those generators.
    """
    count_types(max_degree, max_count)
    result = SuiteResult(name="p=3 realizability")
    gens = p3_generator_types(max_degree)
    for gen in gens:
        ok, _ = realizable_at_prime(cat, DegreeMultiset.of(gen), 3)
        result.record(gen, ok, True)
    allowed = multiset_monoid(gens, max_count)
    for ms in even_degree_multisets(max_degree, max_count):
        got, _ = realizable_at_prime(cat, DegreeMultiset.of(ms), 3)
        result.record(ms, got, ms in allowed)
    return result
