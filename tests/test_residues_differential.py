"""The residue algebra against brute-force and lift-based oracles.

The canonical form is checked against the primes themselves: on random
unions of classes with moduli up to 300, :func:`normalize` keeps the
primes below 50 N, no divisor of N that it rejects gives the same primes,
and it is idempotent.  The other oracles lift both operands to the lcm of
their moduli and combine residues there, as the engine once did; the
engine now pairs classes by the Chinese remainder theorem and unions
bitmasks.  Both must hold the same primes, class by class of the lcm, on
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
from polycoh.ntheory import checked_lcm, divisors, prime_factors, primes_below
from polycoh.realizability import _offending_class
from polycoh.residues import (
    ALL_PRIMES,
    ResidueSet,
    class_contains_prime,
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


def old_intersect(a, b):
    l = checked_lcm(a.modulus, b.modulus)
    return ResidueSet(l, old_lift(a, l) & old_lift(b, l))


def old_union(a, b):
    l = checked_lcm(a.modulus, b.modulus)
    return ResidueSet(l, old_lift(a, l) | old_lift(b, l))


def old_exclude_prime(s, q):
    l = checked_lcm(s.modulus, q)
    return ResidueSet(l, frozenset(r for r in old_lift(s, l) if r % q))


def prime_classes(s, l):
    """The classes mod ``l``, a multiple of the modulus of ``s``, that lie
    in ``s`` and hold a prime: the units and the classes of the primes
    dividing l."""
    of_primes = {q % l for q in prime_factors(l)}
    return frozenset(x for x in old_lift(s, l) if x in of_primes or math.gcd(x, l) == 1)


def same_primes(a, b):
    l = checked_lcm(a.modulus, b.modulus)
    return prime_classes(a, l) == prime_classes(b, l)


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


def random_union(rng):
    """Classes a mod d for divisors d of a random N <= 300, and a few single
    classes mod N, held mod N: sets that often shrink, hold classes with no
    prime, or hold the class of a prime dividing N."""
    n = rng.randint(1, 300)
    residues = set()
    for _ in range(rng.randint(0, 4)):
        d = rng.choice(divisors(n))
        residues.update(range(rng.randrange(d), n, d))
    residues.update(rng.sample(range(n), rng.randint(0, min(n, 3))))
    if rng.random() < 0.3:
        residues.add(rng.choice(prime_factors(n) or (0,)) % n)
    return make(n, residues)


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


def test_normalize_matches_the_brute_force_oracle():
    rng = random.Random(5101)
    for _ in range(1000):
        s = random_union(rng)
        n = s.modulus
        c = normalize(s)
        primes = primes_below(50 * n)
        inside = [p for p in primes if p in s]
        outside = [p for p in primes if p not in s]
        assert [p for p in primes if p in c] == inside, (s, c)
        # The moduli that give the same primes are the multiples of c's.
        for d in divisors(n):
            classes = {p % d for p in inside}
            same = not any(p % d in classes for p in outside)
            assert same == (d % c.modulus == 0), (s, c, d)
        assert normalize(c) == c, s
        assert all(class_contains_prime(r, c.modulus) for r in c.residues), (s, c)


def test_intersect_and_union_match_lift_oracle():
    rng = random.Random(5102)
    for _ in range(200):
        a, b = random_pair(rng)
        both = intersect(a, b)
        assert same_primes(both, old_intersect(a, b)) and normalize(both) == both, (a, b)
        either = union(a, b)
        assert same_primes(either, old_union(a, b)) and normalize(either) == either, (a, b)
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
        assert same_primes(exclude_prime(s, q), old_exclude_prime(s, q)), (s, q)
        assert prime_subset(ALL_PRIMES, s) == old_covers_all_primes(s), s
    for s in (ALL_PRIMES, make(6, (1, 5, 2, 3)), make(6, (1, 5))):
        assert prime_subset(ALL_PRIMES, s) == old_covers_all_primes(s)


# -------------------------------------------------------------- limits


def test_union_and_from_min_prime_name_their_limits():
    # neither holds the other's primes, and lcm 4 * 3^17 is past the
    # bitmask limit of 2^26 bits
    with pytest.raises(ModulusOverflowError, match=str(residues.MASK_BITS)):
        union(make(4, [1]), make(3**17, [2]))
    assert union(make(2**13, [1]), make(3**8, [1])).modulus == 2**13 * 3**8
    with pytest.raises(ModulusOverflowError, match=str(residues.MAX_RESIDUES)):
        from_min_prime(24)
    assert from_min_prime(23).modulus == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19

