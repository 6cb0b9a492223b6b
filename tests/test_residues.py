import random

import pytest

from polycoh.errors import (
    InvalidBoundError,
    InvalidModulusError,
    ModulusOverflowError,
    NotAPrimeError,
)
from polycoh.ntheory import checked_lcm, primes_below
from polycoh.residues import (
    ALL_PRIMES,
    NO_PRIMES,
    ResidueSet,
    as_json_dict,
    class_contains_prime,
    contains_prime,
    exclude_prime,
    from_min_prime,
    intersect,
    make,
    normalize,
    prime_subset,
    union,
)

PRIMES_10K = primes_below(10001)


def rs(modulus, residues=()):
    return make(modulus, residues)


def prime_classes(n):
    """The classes mod ``n`` that hold a prime: every prime of a set whose
    modulus divides n lies in one of them, and each holds one."""
    return [x for x in range(n) if class_contains_prime(x, n)]


# ---------------------------------------------------------------- construction


def test_make_reduces_and_dedupes():
    s = rs(6, [1, 5])
    assert s.modulus == 6 and s.residues == frozenset({1, 5})
    assert rs(6, [7]) == rs(6, [1])
    assert rs(6, [7, 13, 1]).residues == frozenset({1})


def test_make_does_not_canonicalize():
    s = rs(8, [1, 3, 5, 7])
    assert s.modulus == 8
    assert normalize(s).modulus == 2


def test_make_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        make(0, [1])
    with pytest.raises(InvalidModulusError):
        make(-4, [])


def test_direct_construction_validates_range():
    with pytest.raises(InvalidModulusError):
        ResidueSet(4, frozenset({5}))


# ---------------------------------------------------------------- normalize


def test_normalize_full_odd_fibers():
    assert normalize(rs(8, [1, 3, 5, 7])) == rs(2, [1])


def test_normalize_already_minimal():
    # the primes >= 5; mod 3 or mod 2 the class of 2 or of 3 would come in
    assert normalize(rs(6, [1, 5])) == rs(6, [1, 5])
    assert normalize(rs(24, [1, 19])) == rs(24, [1, 19])


def test_normalize_drops_classes_with_no_prime():
    # 4 mod 6 holds no prime, so 1 mod 6 holds the primes 1 mod 3
    assert normalize(rs(6, [1])) == rs(3, [1])
    assert normalize(rs(6, [0, 4])) == NO_PRIMES
    # the odd classes mod 14, 7 included, are the odd primes
    assert normalize(rs(14, [1, 3, 5, 7, 9, 11, 13])) == rs(2, [1])
    assert normalize(rs(14, [0, 1, 3, 5, 7, 9, 11, 13])) == rs(2, [1])
    # the class of the prime 3 is kept, 9 mod 12 is not
    assert normalize(rs(12, [1, 3, 9])) == rs(12, [1, 3])
    assert normalize(rs(6, [1, 3])) == rs(3, [0, 1])


def test_normalize_two_fibers_of_mod_three():
    # both fibers 2, 5 mod 6 of the class 2 mod 3 are present
    assert normalize(rs(6, [2, 5])) == rs(3, [2])


def test_normalize_edge_sets():
    assert normalize(rs(12, [])) == NO_PRIMES
    assert normalize(rs(12, range(12))) == ALL_PRIMES


def test_normalize_preserves_membership_and_is_idempotent():
    rng = random.Random(1281)
    for _ in range(150):
        n = rng.randint(1, 120)
        s = rs(n, rng.sample(range(n), rng.randint(0, n)))
        c = normalize(s)
        assert normalize(c) == c
        assert c.modulus <= s.modulus and s.modulus % c.modulus == 0
        assert all(class_contains_prime(r, c.modulus) for r in c.residues)
        for x in prime_classes(n):
            assert (x in s) == (x in c)


# ---------------------------------------------------------------- intersect / union


def test_intersect_crt():
    assert intersect(rs(3, [1]), rs(4, [1])) == rs(12, [1])


def test_intersect_derived_example():
    got = intersect(rs(8, [1, 3]), rs(3, [1]))
    # oracle: enumerate all residues modulo 24
    expected = {x for x in range(24) if x % 8 in (1, 3) and x % 3 == 1}
    assert expected == {1, 19}
    assert got == rs(24, [1, 19])


def test_union_subset_collapses():
    got = union(rs(24, [1]), rs(8, [1, 3]))
    # oracle: every fiber of 1 mod 24 lies in 1 mod 8
    for x in range(24):
        assert (x % 24 == 1 or x % 8 in (1, 3)) == (x % 8 in (1, 3))
    assert got == rs(8, [1, 3])


def test_set_ops_membership_oracle():
    rng = random.Random(40960)
    for _ in range(100):
        na, nb = rng.randint(1, 60), rng.randint(1, 60)
        a = rs(na, rng.sample(range(na), rng.randint(0, na)))
        b = rs(nb, rng.sample(range(nb), rng.randint(0, nb)))
        both = intersect(a, b)
        either = union(a, b)
        for x in prime_classes(checked_lcm(na, nb)):
            assert (x in both) == ((x in a) and (x in b))
            assert (x in either) == ((x in a) or (x in b))


def test_set_ops_overflow_reported():
    big = rs(2**40, [1])
    other = rs(2**40 + 1, [1])
    with pytest.raises(ModulusOverflowError):
        intersect(big, other)


# ---------------------------------------------------------------- prime membership


def test_contains_prime_examples():
    assert contains_prime(rs(6, [1, 5]), 7)
    assert not contains_prime(rs(2, [1]), 2)
    assert contains_prime(rs(24, [1, 19]), 19)


def test_contains_prime_rejects_composites():
    with pytest.raises(NotAPrimeError):
        contains_prime(rs(6, [1]), 9)


def test_all_and_no_primes():
    for p in (2, 3, 97):
        assert contains_prime(ALL_PRIMES, p)
        assert not contains_prime(NO_PRIMES, p)


# ---------------------------------------------------------------- from_min_prime


def test_from_min_prime_frozen_values():
    assert from_min_prime(5) == rs(6, [1, 5])
    assert from_min_prime(3) == rs(2, [1])
    assert from_min_prime(7) == rs(30, [1, 7, 11, 13, 17, 19, 23, 29])
    assert from_min_prime(2) == ALL_PRIMES


def test_from_min_prime_rejects_small_bounds():
    with pytest.raises(InvalidBoundError):
        from_min_prime(1)
    with pytest.raises(InvalidBoundError):
        from_min_prime(0)


def test_from_min_prime_agrees_with_threshold():
    for k in range(2, 21):
        s = from_min_prime(k)
        for p in PRIMES_10K:
            assert contains_prime(s, p) == (p >= k), (k, p)


# ---------------------------------------------------------------- exclude_prime


def test_exclude_prime_lifts_and_drops():
    got = exclude_prime(rs(7, [1, 2, 4]), 2)
    assert got == rs(14, [1, 9, 11])
    # the only prime lost is 2
    for p in PRIMES_10K:
        assert contains_prime(got, p) == (p % 7 in (1, 2, 4) and p != 2)


def test_exclude_prime_noop_when_absent():
    assert exclude_prime(rs(4, [1]), 2) == rs(4, [1])


def test_exclude_prime_even_class():
    assert exclude_prime(rs(2, [0, 1]), 2) == rs(2, [1])


def test_exclude_prime_random_agreement():
    rng = random.Random(7231)
    for _ in range(60):
        n = rng.randint(1, 80)
        s = rs(n, rng.sample(range(n), rng.randint(0, n)))
        q = rng.choice((2, 3, 5, 7, 11))
        out = exclude_prime(s, q)
        for p in PRIMES_10K[:300]:
            assert contains_prime(out, p) == (contains_prime(s, p) and p != q)


# ---------------------------------------------------------------- class decisions


def test_class_contains_prime_examples():
    assert class_contains_prime(1, 4)
    assert not class_contains_prime(6, 10)
    assert class_contains_prime(3, 9)
    assert class_contains_prime(0, 2)
    assert not class_contains_prime(0, 9)
    assert class_contains_prime(0, 1)


def test_class_contains_prime_matches_scan():
    # where it says yes, a prime exists below 1e6; where no, none exists
    primes = primes_below(10**6)
    for n in (9, 10, 12, 18, 30):
        by_class = {p % n for p in primes}
        for a in range(n):
            assert class_contains_prime(a, n) == (a in by_class)


def test_covers_all_primes_examples():
    assert prime_subset(ALL_PRIMES, rs(6, range(6)))
    assert not prime_subset(ALL_PRIMES, rs(6, [1, 5]))
    assert prime_subset(ALL_PRIMES, rs(6, [1, 5, 2, 3]))
    assert prime_subset(ALL_PRIMES, ALL_PRIMES)
    assert not prime_subset(ALL_PRIMES, NO_PRIMES)


def test_prime_subset_examples():
    assert prime_subset(rs(24, [1]), rs(8, [1, 3]))
    assert not prime_subset(rs(8, [1, 3]), rs(3, [1]))  # witness: 17
    assert contains_prime(rs(8, [1, 3]), 17) and not contains_prime(rs(3, [1]), 17)
    s = rs(8, [1, 3])
    assert prime_subset(s, s)


def test_covers_and_subset_agree_with_enumeration():
    # Moduli are kept small enough that every prime-bearing class receives
    # a prime below 1e4, so scanning those primes is decisive.
    rng = random.Random(90125)
    for _ in range(80):
        na, nb = rng.randint(1, 240), rng.randint(1, 240)
        a = rs(na, rng.sample(range(na), rng.randint(0, na)))
        b = rs(nb, rng.sample(range(nb), rng.randint(0, nb)))
        assert prime_subset(ALL_PRIMES, a) == all(p in a for p in PRIMES_10K)
        assert prime_subset(a, b) == all(p in b for p in PRIMES_10K if p in a)


# ---------------------------------------------------------------- homomorphism


def test_membership_homomorphism_random_pairs():
    rng = random.Random(230)
    for _ in range(120):
        na, nb = rng.randint(1, 120), rng.randint(1, 120)
        a = rs(na, rng.sample(range(na), rng.randint(0, min(na, 30))))
        b = rs(nb, rng.sample(range(nb), rng.randint(0, min(nb, 30))))
        both = intersect(a, b)
        either = union(a, b)
        for p in PRIMES_10K[:250]:
            pa, pb = p in a, p in b
            assert (p in both) == (pa and pb)
            assert (p in either) == (pa or pb)


# ---------------------------------------------------------------- serialization


def test_json_dict_is_canonical():
    assert as_json_dict(rs(8, [1, 3, 5, 7])) == {"modulus": 2, "residues": [1]}
    assert as_json_dict(ALL_PRIMES) == {"modulus": 1, "residues": [0]}
    assert as_json_dict(NO_PRIMES) == {"modulus": 1, "residues": []}

