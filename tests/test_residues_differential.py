"""The residue algebra against the lift-based implementation it replaced.

The oracles below lift both operands to the lcm of their moduli and compare
residues there, as the engine once did; the engine now pairs classes by the
Chinese remainder theorem and unions bitmasks.  Both must agree exactly on
random sets with moduli up to 10^4, including empty, full, periodic and
non-coprime ones.  Pairs are drawn with a common factor so that their lcm
stays small enough for the oracles to lift.  The last test covers the
limits (unions past the bitmask limit, the residue cap of from_min_prime).
"""

import math
import random

import pytest

from polycoh import residues
from polycoh.errors import ModulusOverflowError
from polycoh.ntheory import checked_lcm, divisors
from polycoh.realizability import _offending_class
from polycoh.residues import (
    ALL_PRIMES,
    ResidueSet,
    class_contains_prime,
    covers_all_primes,
    exclude_prime,
    from_min_prime,
    intersect,
    make,
    normalize,
    prime_subset,
    union,
)

MAX_MODULUS = 10**4
MAX_LCM = 3 * 10**4


# -------------------------------------------------------------- lift oracles


def old_lift(s, modulus):
    step = s.modulus
    return frozenset(r + k * step for r in s.residues for k in range(modulus // step))


def old_normalize(s):
    n, res = s.modulus, s.residues
    size = len(res)
    for d in divisors(n):
        fiber = n // d
        if size % fiber:
            continue
        proj = frozenset(r % d for r in res)
        if len(proj) * fiber == size:
            return ResidueSet(d, proj)
    return s


def old_intersect(a, b):
    l = checked_lcm(a.modulus, b.modulus)
    return old_normalize(ResidueSet(l, old_lift(a, l) & old_lift(b, l)))


def old_union(a, b):
    l = checked_lcm(a.modulus, b.modulus)
    return old_normalize(ResidueSet(l, old_lift(a, l) | old_lift(b, l)))


def old_exclude_prime(s, q):
    l = checked_lcm(s.modulus, q)
    return old_normalize(ResidueSet(l, frozenset(r for r in old_lift(s, l) if r % q)))


def old_covers_all_primes(s):
    return all(
        a in s.residues or not class_contains_prime(a, s.modulus)
        for a in range(s.modulus)
    )


def old_prime_subset(a, b):
    l = checked_lcm(a.modulus, b.modulus)
    extra = old_lift(a, l) - old_lift(b, l)
    return not any(class_contains_prime(r, l) for r in extra)


def old_offending_class(classes, ps):
    l = checked_lcm(classes.modulus, ps.modulus)
    for a in sorted(old_lift(classes, l) - old_lift(ps, l)):
        if class_contains_prime(a, l):
            return (a, l)
    raise AssertionError("no offending class")


# -------------------------------------------------------------- random sets


def random_set(rng, modulus):
    """Empty, full, periodic (a pattern mod a divisor, repeated), a few
    residues, or a random half of them, modulo ``modulus``."""
    kind = rng.randrange(5)
    if kind == 0:
        return make(modulus)
    if kind == 1:
        return make(modulus, range(modulus))
    if kind == 2:
        d = rng.choice(divisors(modulus))
        pattern = rng.sample(range(d), rng.randint(0, d))
        return make(modulus, (r + k for r in pattern for k in range(0, modulus, d)))
    if kind == 3:
        return make(modulus, rng.sample(range(modulus), min(modulus, rng.randint(1, 4))))
    return make(modulus, rng.sample(range(modulus), modulus // 2))


def random_pair(rng):
    """Two sets whose moduli are at most 10^4 and share a random factor,
    with lcm at most MAX_LCM."""
    while True:
        g = rng.choice((1, 2, 6, 12, 30, 60, 210, rng.randint(1, 500), rng.randint(1, 5000)))
        u = rng.randint(1, MAX_MODULUS // g)
        v = rng.randint(1, MAX_MODULUS // g)
        m, n = g * u, g * v
        if m * n // math.gcd(m, n) <= MAX_LCM:
            return random_set(rng, m), random_set(rng, n)


# -------------------------------------------------------------- comparisons


def test_normalize_matches_lift_oracle():
    rng = random.Random(5101)
    for _ in range(400):
        s = random_set(rng, rng.randint(1, MAX_MODULUS))
        assert normalize(s) == old_normalize(s), s


def test_intersect_and_union_match_lift_oracle():
    rng = random.Random(5102)
    for _ in range(200):
        a, b = random_pair(rng)
        assert intersect(a, b) == old_intersect(a, b), (a, b)
        either = old_union(a, b)
        assert union(a, b) == either, (a, b)
        # operands contained in the other
        assert union(a, either) == either and union(either, b) == either, (a, b)


def test_prime_subset_matches_lift_oracle():
    rng = random.Random(5103)
    seen = set()
    for _ in range(200):
        a, b = random_pair(rng)
        if rng.random() < 0.5:
            # a superset of a, so that the true answer is common too
            b = old_union(a, b)
        want = old_prime_subset(a, b)
        seen.add(want)
        assert prime_subset(a, b) == want, (a, b)
    assert seen == {True, False}


def test_offending_class_matches_lift_oracle():
    rng = random.Random(5104)
    compared = 0
    while compared < 100:
        a, b = random_pair(rng)
        if old_prime_subset(a, b):
            continue
        compared += 1
        assert _offending_class(a, b) == old_offending_class(a, b), (a, b)


def test_exclude_prime_and_covers_match_lift_oracle():
    rng = random.Random(5105)
    for _ in range(200):
        s = random_set(rng, rng.randint(1, 2000))
        q = rng.choice((2, 3, 5, 7, 11, 13))
        assert exclude_prime(s, q) == old_exclude_prime(s, q), (s, q)
        assert covers_all_primes(s) == old_covers_all_primes(s), s
    for s in (ALL_PRIMES, make(6, (1, 5, 2, 3)), make(6, (1, 5))):
        assert covers_all_primes(s) == old_covers_all_primes(s)


# -------------------------------------------------------------- limits


def test_union_and_from_min_prime_name_their_limits():
    # lcm 2 * 3^17 is past the bitmask limit of 2^26 bits
    with pytest.raises(ModulusOverflowError, match=str(residues.MASK_BITS)):
        union(make(2, [1]), make(3**17, [1]))
    assert union(make(2**13, [1]), make(3**8, [1])).modulus == 2**13 * 3**8
    with pytest.raises(ModulusOverflowError, match=str(residues.MAX_RESIDUES)):
        from_min_prime(24)
    assert from_min_prime(23).modulus == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19

