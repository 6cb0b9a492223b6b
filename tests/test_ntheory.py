import math

import pytest

from polycoh.errors import ModulusOverflowError, NotAPrimeError, SizeLimitError
from polycoh.ntheory import (
    MAX_MODULUS,
    PRIME_TEST_BOUND,
    RHO_STEPS,
    checked_lcm,
    divisors,
    ensure_prime,
    ensure_probable_prime,
    is_prime,
    prime_factors,
    primes_below,
)


def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_below(20000))
    for n in range(20000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert is_prime(10**12 + 39)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_prime_factors_of_balanced_semiprimes_below_the_modulus_limit():
    # the hardest inputs below MAX_MODULUS: two primes near its square root
    top = math.isqrt(MAX_MODULUS)
    near = [p for p in range(top, top - 2000, -1) if is_prime(p)][:6]
    for p, q in zip(near[::2], near[1::2]):
        assert p * q <= MAX_MODULUS
        assert prime_factors(p * q) == (q, p)


def test_prime_factors_refuses_past_the_rho_step_limit():
    with pytest.raises(SizeLimitError, match=str(RHO_STEPS)):
        prime_factors((10**20 + 39) * (10**20 + 129))


def test_ensure_prime_rejects():
    with pytest.raises(NotAPrimeError):
        ensure_prime(1)
    with pytest.raises(NotAPrimeError):
        ensure_prime(15)
    assert ensure_prime(13) == 13


def test_primes_below():
    assert primes_below(2) == ()
    assert primes_below(3) == (2,)
    assert primes_below(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes_below(10001)) == 1229


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(2 * 3 * 5 * 49) == (2, 3, 5, 7)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)


def test_checked_lcm():
    assert checked_lcm(6, 8) == 24
    assert checked_lcm(1, 7) == 7
    with pytest.raises(ModulusOverflowError):
        checked_lcm(2**40, 2**40 + 1)


def test_prime_factors_beyond_trial_division():
    # products of two primes near 2^31 and squares of large primes need rho
    assert prime_factors((2**31 - 1) * (2**31 - 19)) == (2**31 - 19, 2**31 - 1)
    assert prime_factors(1000003**2) == (1000003,)
    assert prime_factors(1000003**3 * 999983 * 12) == (2, 3, 999983, 1000003)
    assert prime_factors(2**61 - 1) == (2**61 - 1,)
    assert prime_factors(2**64 + 1) == (274177, 67280421310721)
    smallest = list(range(3000))
    for p in range(2, 55):
        for m in range(p * p, 3000, p):
            if smallest[m] == m:
                smallest[m] = p
    for n in range(1, 3000):
        want, m = set(), n
        while m > 1:
            want.add(smallest[m])
            m //= smallest[m]
        assert prime_factors(n) == tuple(sorted(want))


def test_prime_factors_of_balanced_semiprimes_below_the_modulus_limit():
    # the hardest inputs below MAX_MODULUS: two primes near its square root
    top = math.isqrt(MAX_MODULUS)
    near = [p for p in range(top, top - 2000, -1) if is_prime(p)][:6]
    for p, q in zip(near[::2], near[1::2]):
        assert p * q <= MAX_MODULUS
        assert prime_factors(p * q) == (q, p)


def test_prime_factors_refuses_past_the_rho_step_limit():
    with pytest.raises(SizeLimitError, match=str(RHO_STEPS)):
        prime_factors((10**20 + 39) * (10**20 + 129))


def test_ensure_prime_rejects_past_the_deterministic_bound():
    assert ensure_prime(2**61 - 1) == 2**61 - 1
    for p in (PRIME_TEST_BOUND, 2**89 - 1):  # 2^89 - 1 is a Mersenne prime
        with pytest.raises(NotAPrimeError, match=str(PRIME_TEST_BOUND)):
            ensure_prime(p)
    assert ensure_probable_prime(2**89 - 1) == 2**89 - 1
    with pytest.raises(NotAPrimeError, match="not a prime"):
        ensure_probable_prime(2**89 + 1)
