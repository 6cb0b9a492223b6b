"""Exact algebra of residue-class sets of primes.

A :class:`ResidueSet` stores a modulus ``N`` and a set of residues in
``[0, N)`` and stands for every integer congruent to one of them.  Sets of
this shape are closed under finite unions and intersections, decide prime
membership exactly, and admit a unique minimal-modulus canonical form --
which is what makes them usable as "occurs for p = a (mod N)" conditions.

"All primes" is represented as {0} mod 1 and "no primes" as the empty set
mod 1, so the algebra has no special cases.

Operations build their results, never their operands' residues lifted to
the lcm L = lcm(M, N) of two moduli.  With g = gcd(M, N):

* Pairwise (Chinese remainder theorem): the classes a mod M and b mod N
  meet iff a = b (mod g), in exactly one class mod L.  :func:`intersect`
  and :func:`exclude_prime` pair the residues through a table keyed by
  residue mod g, in O(|A| + |B| + |result|), and pass the result mod L to
  :func:`normalize`.  :func:`prime_subset` counts instead of pairing: a
  unit class mod M is covered when B holds all phi(N) / phi(g) unit
  classes mod N over it, and the only other classes that hold a prime are
  the primes dividing L; O(|A| + |B|) plus factoring M and N.
* Bitmask: :func:`union` first tests pairwise, in O(|A| + |B|), whether
  one operand contains the other.  Otherwise it holds each operand as an
  ``int`` whose bit r is set for each residue r, repeats the M-bit pattern
  to L bits by shift-or doubling, ORs the two, and reduces the mask to its
  canonical modulus before it builds any residue (see
  :func:`_reduce_mask`): O(L / 64) word operations.  Unions whose lcm
  passes ``MASK_BITS`` bits are refused with :class:`ModulusOverflowError`.
* Canonical form (:func:`normalize`): a set mod N that is also a set mod a
  divisor d satisfies it for N / q for some prime factor q of N, so only
  those moduli are tried, q by q.  A set is periodic mod d iff its
  projection mod d is N / d times smaller, O(|S|) per modulus tried; a
  bitmask is iff shifting it right by d bits leaves its low N - d bits.
  :func:`normalize` projects, because a user's modulus may be 2^61 - 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidBoundError, InvalidModulusError, ModulusOverflowError
from .ntheory import (
    MAX_MODULUS,
    checked_lcm,
    ensure_prime,
    is_prime,
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
    """Integers congruent to one of ``residues`` modulo ``modulus``."""

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
    """Canonical (modulus, mask) of the n-bit ``mask``: one prime at a time,
    shrink to n / q while the mask is periodic with that period."""
    for q in prime_factors(n):
        while n % q == 0:
            d = n // q
            if mask >> d != mask & ((1 << (n - d)) - 1):
                break
            n, mask = d, mask & ((1 << d) - 1)
    return n, mask


# -- canonical form --------------------------------------------------------------


def normalize(s: ResidueSet) -> ResidueSet:
    """Canonical form: the minimal modulus d | N over which ``s`` is a
    union of full congruence classes.

    The moduli over which a set is a union of full classes are the divisors
    of N that are multiples of one minimal d0 (membership factors through
    x mod d1 and x mod d2 only if it factors through x mod gcd(d1, d2)).
    So while d0 < n, some prime q has d0 | n / q; and once the test fails
    for q, the power of q in n is final, because dividing by other primes
    does not change it.  A set that is already canonical is returned as is.
    """
    n, residues = s.modulus, s.residues
    size = len(residues)
    for q in prime_factors(n):
        while n % q == 0 and size % q == 0:
            d = n // q
            proj = frozenset(r % d for r in residues)
            if len(proj) * q != size:
                break
            n, residues, size = d, proj, len(proj)
    return s if n == s.modulus else ResidueSet(n, residues)


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


def _within(a: ResidueSet, b: ResidueSet) -> bool:
    """Whether every integer of ``a`` lies in ``b``: each residue of a
    mod g = gcd(M, N) has all N / g of its classes mod N in b."""
    g = math.gcd(a.modulus, b.modulus)
    per_class = Counter(r % g for r in b.residues)
    return all(per_class[r % g] == b.modulus // g for r in a.residues)


def union(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Exact union, canonicalized."""
    l = checked_lcm(a.modulus, b.modulus)
    # While the union of a type's decompositions grows, most sets it
    # receives are absorbed: those need no bitmask of l bits.
    for small, big in ((a, b), (b, a)):
        if _within(small, big):
            return normalize(big)
    if l > MASK_BITS:
        raise ModulusOverflowError(
            f"union modulo {l} is past the bitmask limit of {MASK_BITS} bits"
        )
    mask = _spread(_mask(a), a.modulus, l) | _spread(_mask(b), b.modulus, l)
    d, mask = _reduce_mask(l, mask)
    return ResidueSet(d, _bits(mask))


def contains_prime(s: ResidueSet, p: int) -> bool:
    """Whether the prime ``p`` belongs to ``s`` (non-primes are rejected)."""
    ensure_prime(p)
    return p % s.modulus in s.residues


def from_min_prime(k: int) -> ResidueSet:
    """The set matching exactly the primes p >= k, for k >= 2.

    A prime is >= k iff it divides none of the primes below k, i.e. iff it
    is a unit modulo their product.  For example k = 5 gives {1, 5} mod 6.
    The units are built prime by prime (a unit mod n*p is a unit mod n that
    is not divisible by p) and are already canonical: no unit set modulo a
    squarefree n is periodic mod n / p.
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
    l = checked_lcm(s.modulus, q)
    return normalize(ResidueSet(l, _crt_pairs(s, ResidueSet(q, frozenset(range(1, q))))))


def class_contains_prime(a: int, n: int) -> bool:
    """Whether the class a mod n contains at least one prime.

    For gcd(a, n) == 1 Dirichlet's theorem gives infinitely many; otherwise
    every member is divisible by g = gcd(a, n) > 1, so the only possible
    prime is g itself.
    """
    if not 0 <= a < n:
        raise InvalidModulusError(f"residue {a} out of range for modulus {n}")
    g = math.gcd(a, n)
    if g == 1:
        return True
    return is_prime(g) and g % n == a


def covers_all_primes(s: ResidueSet) -> bool:
    """Whether every prime belongs to ``s``.

    Representation-independent: a class of the modulus matters only if it
    contains a prime at all.
    """
    return prime_subset(ALL_PRIMES, s)


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
    for q in set(prime_factors(m)) | set(prime_factors(n)):
        if q % m in a.residues and q % n not in b.residues:
            return False
    g = math.gcd(m, n)
    per_class = _totient(n) // _totient(g)
    covered = Counter(c % g for c in b.residues if math.gcd(c, n) == 1)
    return all(
        covered[r % g] == per_class for r in a.residues if math.gcd(r, m) == 1
    )


def as_json_dict(s: ResidueSet) -> dict:
    """Canonical JSON form: {"modulus": N, "residues": ascending list}."""
    c = normalize(s)
    return {"modulus": c.modulus, "residues": sorted(c.residues)}
