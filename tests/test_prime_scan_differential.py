"""The prime scan of ``realizability`` against the helpers it replaced.

``realizable_over`` finds every prime it reports -- the smallest failing
prime, the prime a witness is taken at -- through one ascending scan,
``_first_prime``, and decides the all and cofinite specs through
``_uncovered_prime``.  The oracles below are the five scans it replaced:
one ascending walk per residue class for the smallest uncovered prime and
for cofinite specs, a walk over the integers for the smallest prime not
excluded, and a walk over the sieve for listable specs.  Both sides must
agree on random residue sets (empty, full, periodic, sparse, half),
exclusion lists and scan bounds.
"""

import math
import random

from polycoh.ntheory import is_prime, primes_below
from polycoh.realizability import WITNESS_PRIME_BOUND, _first_prime, _uncovered_prime
from polycoh.residues import ALL_PRIMES, make, normalize, prime_subset

SMALL_PRIMES = primes_below(100)


# -------------------------------------------------------------- old helpers


def old_first_prime_in_class(a, n):
    g = math.gcd(a, n)
    if g > 1:
        return g if is_prime(g) and g % n == a else None
    x = a
    while True:
        if x >= 2 and is_prime(x):
            return x
        x += n


def old_smallest_uncovered_prime(s):
    best = None
    for a in range(s.modulus):
        if a in s.residues:
            continue
        p = old_first_prime_in_class(a, s.modulus)
        if p is not None and (best is None or p < best):
            best = p
    return best


def old_first_prime_in_class_outside(a, n, excluded):
    g = math.gcd(a, n)
    if g > 1:
        p = old_first_prime_in_class(a, n)
        return p if p is not None and p not in excluded else None
    x = a
    while True:
        if x >= 2 and is_prime(x) and x not in excluded:
            return x
        x += n


def old_cofinite_failing_prime(ps, excluded):
    failing = [
        p
        for a in range(ps.modulus)
        if a not in ps.residues
        and (p := old_first_prime_in_class_outside(a, ps.modulus, excluded)) is not None
    ]
    return min(failing, default=None)


def old_smallest_prime_not_in(excluded):
    x = 2
    while True:
        if is_prime(x) and x not in excluded:
            return x
        x += 1


def old_smallest_listed_prime(classes, outside=None, bound=WITNESS_PRIME_BOUND):
    for p in primes_below(bound):
        if p % classes.modulus in classes.residues and (
            outside is None or p % outside.modulus not in outside.residues
        ):
            return p
    return None


# -------------------------------------------------------------- random inputs


def random_set(rng, max_modulus=90):
    n = rng.randint(1, max_modulus)
    shape = rng.choice(("empty", "full", "periodic", "sparse", "half", "units"))
    if shape == "empty":
        res = []
    elif shape == "full":
        res = range(n)
    elif shape == "periodic":
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        base = [r for r in range(d) if rng.random() < 0.5]
        res = [r + k * d for r in base for k in range(n // d)]
    elif shape == "sparse":
        res = rng.sample(range(n), min(n, rng.randint(1, 3)))
    elif shape == "half":
        res = [r for r in range(n) if rng.random() < 0.5]
    else:  # every unit class, plus some classes of prime factors
        res = [r for r in range(n) if math.gcd(r, n) == 1 or rng.random() < 0.3]
    return make(n, res)


def random_excluded(rng):
    return set(rng.sample(SMALL_PRIMES, rng.randint(0, 8)))


# -------------------------------------------------------------- tests


def test_first_prime_in_class():
    assert _first_prime(make(4, [1])) == 5
    assert _first_prime(make(4, [3])) == 3
    assert _first_prime(make(2, [0])) == 2
    assert _first_prime(make(10, [6]), bound=10**5) is None
    assert _first_prime(make(9, [3])) == 3
    assert _first_prime(make(9, [0]), bound=10**5) is None
    # agrees with an exhaustive scan on a sample
    for n in (7, 12, 30):
        for a in range(n):
            scan = next((p for p in primes_below(10**5) if p % n == a), None)
            assert _first_prime(make(n, [a]), bound=10**5) == scan
            if scan is not None:
                assert _first_prime(make(n, [a])) == scan


def test_uncovered_prime_matches_the_classwise_scans():
    rng = random.Random(4004)
    for _ in range(1500):
        ps = normalize(random_set(rng))
        excluded = random_excluded(rng)
        assert _uncovered_prime(ps, excluded) == old_cofinite_failing_prime(
            ps, excluded
        ), (ps, excluded)
        want = None if prime_subset(ALL_PRIMES, ps) else old_smallest_uncovered_prime(ps)
        assert _uncovered_prime(ps, set()) == want, ps


def test_first_prime_matches_the_listed_and_unexcluded_scans():
    rng = random.Random(5005)
    for _ in range(1500):
        classes, outside = random_set(rng), random_set(rng)
        bound = rng.choice((2, 3, rng.randint(2, 200), rng.randint(2, 5000)))
        assert _first_prime(classes, bound=bound) == old_smallest_listed_prime(
            classes, bound=bound
        ), (classes, bound)
        assert _first_prime(
            classes, lambda p: p not in outside, bound=bound
        ) == old_smallest_listed_prime(classes, outside, bound), (classes, outside)
        excluded = random_excluded(rng)
        assert _first_prime(
            ALL_PRIMES, lambda p: p not in excluded
        ) == old_smallest_prime_not_in(excluded)
