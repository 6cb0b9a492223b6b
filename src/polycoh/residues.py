"""Exact algebra of residue-class sets of primes.

A :class:`ResidueSet` stores a modulus ``N`` and a set of residues in
``[0, N)`` and stands for every prime congruent to one of them.  Sets of
this shape are closed under finite unions and intersections, decide prime
membership exactly, and have a unique canonical form (:func:`normalize`),
so ``==`` on canonical sets means "the same primes".  "All primes" is
{0} mod 1 and "no primes" the empty set mod 1.

A class a mod N holds a prime iff gcd(a, N) = 1 (Dirichlet) or a is the
class of a prime dividing N (:func:`class_contains_prime`).  Operations
never lift their operands' residues to L = lcm(M, N).  With g = gcd(M, N):

* Pairwise (Chinese remainder theorem): the classes a mod M and b mod N
  meet iff a = b (mod g), in exactly one class mod L.  :func:`intersect`
  and :func:`exclude_prime` pair the residues through a table keyed by
  residue mod g, in O(|A| + |B| + |result|), and pass the result mod L to
  :func:`normalize`.
* Containment (:func:`prime_subset`, the only one): a unit class mod M is
  covered when B holds all phi(N) / phi(g) unit classes mod N over it, and
  the only other classes that hold a prime are the primes dividing L;
  O(|A| + |B|) plus factoring M and N.
* Bitmask: unless one operand contains the other, :func:`union` holds
  each as an ``int`` with bit r set for each residue r, repeats the M-bit
  pattern to L bits by shift-or doubling, ORs the two, and shrinks the
  mask while it is periodic (:func:`_reduce_mask`) before it builds any
  residue: O(L / 64) word operations, refused with
  :class:`ModulusOverflowError` past ``MASK_BITS`` bits.
* Canonical form (:func:`normalize`): drop the classes that hold no
  prime, then try the moduli N / q for the prime factors q of N by
  projecting the residues: O(|S|) per modulus tried, because a user's
  modulus may be 2^61 - 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import InvalidBoundError, InvalidModulusError, ModulusOverflowError
from .ntheory import (
    MAX_MODULUS,
    checked_lcm,
    ensure_prime,
    prime_factors,
    primes_below,
)

# Largest lcm modulus, in bits, of a union's bitmasks (8 MB per mask).
MASK_BITS = 1 << 26

# Largest number of residues from_min_prime builds (the units modulo a
# primorial).
MAX_RESIDUES = 1 << 21


@dataclass(frozen=True)
class ResidueSet:
    """Primes congruent to one of ``residues`` modulo ``modulus``."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise InvalidModulusError(f"modulus must be >= 1, got {self.modulus}")
        if self.residues and not 0 <= min(self.residues) <= max(self.residues) < self.modulus:
            raise InvalidModulusError(
                f"residues {sorted(self.residues)} out of range for modulus {self.modulus}"
            )

    def __contains__(self, x: int) -> bool:
        return x % self.modulus in self.residues

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResidueSet({sorted(self.residues)} mod {self.modulus})"


ALL_PRIMES = ResidueSet(1, frozenset({0}))
NO_PRIMES = ResidueSet(1, frozenset())


def make(modulus: int, residues: Iterable[int] = ()) -> ResidueSet:
    """Build a ResidueSet, reducing the residues mod ``modulus``.

    The result is deliberately not canonicalized; call :func:`normalize`.
    """
    if not isinstance(modulus, int) or modulus < 1:
        raise InvalidModulusError(f"modulus must be a positive integer, got {modulus!r}")
    if modulus > MAX_MODULUS:
        raise ModulusOverflowError(f"modulus {modulus} exceeds the 64-bit limit")
    return ResidueSet(modulus, frozenset(r % modulus for r in residues))


# -- bitmasks ------------------------------------------------------------------


def _mask(s: ResidueSet) -> int:
    """The int with bit r set for every residue r of ``s``, assembled in a
    bytearray: O(M / 8 + |S|), where setting one bit of an int at a time
    would cost O(M / 64) per residue."""
    buf = bytearray((s.modulus >> 3) + 1)
    for r in s.residues:
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int) -> frozenset[int]:
    """The positions of the set bits of ``mask``."""
    text = bin(mask)
    top = len(text) - 1
    out = []
    i = text.rfind("1")
    while i >= 0:
        out.append(top - i)
        i = text.rfind("1", 0, i)
    return frozenset(out)


def _spread(mask: int, modulus: int, target: int) -> int:
    """``mask`` of period ``modulus`` repeated over ``target`` bits, a
    multiple of ``modulus``: shift-or doubling of the pattern."""
    width = modulus
    while width < target:
        step = min(width, target - width)
        mask |= (mask & ((1 << step) - 1)) << width
        width += step
    return mask


def _reduce_mask(n: int, mask: int) -> tuple[int, int]:
    """The n-bit ``mask`` shrunk, one prime at a time, to n / q while it is
    periodic with that period; :func:`normalize` finishes the canonical
    form on the few residues left."""
    for q in prime_factors(n):
        while n % q == 0:
            d = n // q
            if mask >> d != mask & ((1 << (n - d)) - 1):
                break
            n, mask = d, mask & ((1 << d) - 1)
    return n, mask


# -- canonical form --------------------------------------------------------------


@lru_cache(maxsize=4096)
def _prime_classes(n: int) -> frozenset[int]:
    """The classes mod n of the primes dividing n: with the units, the
    classes that hold a prime (:func:`class_contains_prime`)."""
    return frozenset(q % n for q in prime_factors(n))


def normalize(s: ResidueSet) -> ResidueSet:
    """Canonical form: the classes of ``s`` that hold a prime, modulo the
    least d | N over which they hold the same primes.

    The moduli that give a set of primes are the divisors of N that are
    multiples of one least d0, as for the conductor of a Dirichlet
    character.  So while d0 < n, some prime q has d0 | n / q; and once the
    test fails for q, the power of q in n is final.  Over a class mod
    d = n / q that holds a prime, the classes mod n that hold one are: over
    a unit, the q units if q | d, else the q - 1 units and, over q mod d,
    the class of q; over the class of a prime r | d, that class alone.  The
    set is one mod d iff it holds them all: iff their number is its size.
    """
    n = s.modulus
    of_primes = _prime_classes(n)  # class_contains_prime, inlined
    residues = frozenset(r for r in s.residues if r in of_primes or math.gcd(r, n) == 1)
    at_primes = len(residues & of_primes)
    for q in prime_factors(n):
        while n % q == 0:
            d = n // q
            per_unit = q if d % q == 0 else q - 1
            # The units mod n lie q or q - 1 over each unit of the projection.
            if (len(residues) - at_primes) % per_unit:
                break
            proj = frozenset(r % d for r in residues)
            at_d = len(proj & _prime_classes(d))
            lifts = per_unit * (len(proj) - at_d) + at_d
            if lifts + (d % q != 0 and q % d in proj) != len(residues):
                break
            n, residues, at_primes = d, proj, at_d
    if n == s.modulus and len(residues) == len(s.residues):
        return s
    return ResidueSet(n, residues)


# -- combinations ----------------------------------------------------------------


def _crt_pairs(a: ResidueSet, b: ResidueSet) -> frozenset[int]:
    """Residues mod lcm(M, N) of the class pairs a mod M, b mod N that
    meet, i.e. a = b (mod g): x = a + M * t with t = (b - a) / g / (M / g)
    modulo N / g."""
    m, n = a.modulus, b.modulus
    g = math.gcd(m, n)
    n_g = n // g
    inv = pow(m // g, -1, n_g)
    by_class: dict[int, list[int]] = {}
    for r in b.residues:
        by_class.setdefault(r % g, []).append(r)
    out = []
    for r in a.residues:
        for s in by_class.get(r % g, ()):
            out.append(r + m * ((s - r) // g * inv % n_g))
    return frozenset(out)


def intersect(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Exact intersection, canonicalized."""
    l = checked_lcm(a.modulus, b.modulus)
    return normalize(ResidueSet(l, _crt_pairs(a, b)))


def union(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Exact union, canonicalized."""
    l = checked_lcm(a.modulus, b.modulus)
    # While the union of a type's decompositions grows, most sets it
    # receives are absorbed: those need no bitmask of l bits.
    for small, big in ((a, b), (b, a)):
        if prime_subset(small, big):
            return normalize(big)
    if l > MASK_BITS:
        raise ModulusOverflowError(
            f"union modulo {l} is past the bitmask limit of {MASK_BITS} bits"
        )
    mask = _spread(_mask(a), a.modulus, l) | _spread(_mask(b), b.modulus, l)
    d, mask = _reduce_mask(l, mask)
    return normalize(ResidueSet(d, _bits(mask)))


def contains_prime(s: ResidueSet, p: int) -> bool:
    """Whether the prime ``p`` belongs to ``s`` (non-primes are rejected)."""
    ensure_prime(p)
    return p % s.modulus in s.residues


def from_min_prime(k: int) -> ResidueSet:
    """The set matching exactly the primes p >= k, for k >= 2.

    A prime is >= k iff it divides none of the primes below k, i.e. iff it
    is a unit modulo their product.  For example k = 5 gives {1, 5} mod 6.
    The units are built prime by prime (a unit mod n*p is a unit mod n that
    is not divisible by p) and are already canonical: no modulus n / p will
    do, as its class of p holds both p and larger primes.
    """
    if not isinstance(k, int) or k < 2:
        raise InvalidBoundError(f"bound must be an integer >= 2, got {k!r}")
    n, units = 1, [0]
    for p in primes_below(k):
        if len(units) * (p - 1) > MAX_RESIDUES:
            raise ModulusOverflowError(
                f"the primes >= {k} need {len(units) * (p - 1)} residues mod"
                f" {n * p}, past the limit of {MAX_RESIDUES}"
            )
        units = [x for j in range(0, n * p, n) for u in units if (x := u + j) % p]
        n *= p
    return ResidueSet(n, frozenset(units))


def exclude_prime(s: ResidueSet, q: int) -> ResidueSet:
    """Remove the single prime ``q`` from ``s``.

    Intersecting with the classes mod q other than 0 removes exactly q
    among primes: any other prime in the dropped classes would be a
    multiple of q.
    """
    ensure_prime(q)
    return intersect(s, ResidueSet(q, frozenset(range(1, q))))


def class_contains_prime(a: int, n: int) -> bool:
    """Whether the class a mod n contains at least one prime.

    For gcd(a, n) == 1 Dirichlet's theorem gives infinitely many; otherwise
    every member is divisible by g = gcd(a, n) > 1, so the only possible
    prime is g itself, a prime dividing n.
    """
    if not 0 <= a < n:
        raise InvalidModulusError(f"residue {a} out of range for modulus {n}")
    return math.gcd(a, n) == 1 or a in _prime_classes(n)


def _totient(n: int) -> int:
    for q in prime_factors(n):
        n = n // q * (q - 1)
    return n


def prime_subset(a: ResidueSet, b: ResidueSet) -> bool:
    """Whether every prime in ``a`` also lies in ``b``.

    Decided exactly at the class level, modulo L = lcm(M, N) but without
    lifting: the classes mod L that hold a prime are the units, and the
    classes of the primes q dividing L.  A unit class mod L lies over one
    unit class mod M and one mod N that agree mod g = gcd(M, N), and every
    unit c mod N over a unit r mod g occurs, phi(N) / phi(g) of them; so
    the units of a lie in b iff, for each unit of a, b holds all of those.
    """
    m, n = a.modulus, b.modulus
    for q in prime_factors(m) + prime_factors(n):
        if q % m in a.residues and q % n not in b.residues:
            return False
    g = math.gcd(m, n)
    if g == n:  # each unit mod m lies over one unit mod n
        return all(r % n in b.residues for r in a.residues if math.gcd(r, m) == 1)
    per_class = _totient(n) // _totient(g)
    covered = Counter(c % g for c in b.residues if math.gcd(c, n) == 1)
    return all(
        covered[r % g] == per_class for r in a.residues if math.gcd(r, m) == 1
    )


def as_json_dict(s: ResidueSet) -> dict:
    """Canonical JSON form: {"modulus": N, "residues": ascending list}."""
    c = normalize(s)
    return {"modulus": c.modulus, "residues": sorted(c.residues)}
