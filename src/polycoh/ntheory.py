"""Small exact number-theory helpers: primality, factoring, divisors,
checked lcm."""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import ModulusOverflowError, NotAPrimeError, SizeLimitError

# Largest modulus the residue algebra will represent.  Python integers do not
# overflow, but catalog consumers expect 64-bit-sized moduli; anything bigger
# is reported instead of silently accepted.
MAX_MODULUS = 2**63 - 1

# Witness set making Miller-Rabin deterministic for all n below
# PRIME_TEST_BOUND (Sorenson and Webster, arXiv:1509.00864), which covers the
# whole 64-bit range with room to spare.  Without 41 the bound would be
# 3.2 * 10^23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981

# Trial divisors tried before Pollard-Brent rho, and its batch of products
# per gcd.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_RHO_BATCH = 128

# Steps Pollard-Brent rho may take to split one number.  It needs about
# sqrt(p) of them for the smallest prime factor p, which is below 3.1 * 10^9
# for a composite up to MAX_MODULUS: balanced semiprimes near 2^63 split
# within 230,000 steps in trials.  The limit refuses a 40-digit product of
# two 20-digit primes in about a second.
RHO_STEPS = 1 << 21


def int_of_digits(text: str, error: type[Exception]) -> int:
    """The number that ``text``, ASCII digits with spaces around them
    allowed, spells; anything else raises ``error`` naming the text, or
    Python's limit on an int's length."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise error(f"cannot read {text!r} as a number")
    try:
        return int(digits)
    except ValueError:
        limit = f"Python's {sys.get_int_max_str_digits()}-digit limit for an int"
        raise error(f"a {len(digits)}-digit number is past {limit}") from None


@lru_cache(maxsize=65536)
def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed witnesses: exact below PRIME_TEST_BOUND, a
    strong probable-prime test above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ensure_probable_prime(p: int) -> int:
    """``p`` if :func:`is_prime` accepts it, exactly or, past
    PRIME_TEST_BOUND, as a strong probable prime."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotAPrimeError(f"{p!r} is not a prime number")
    return p


def ensure_prime(p: int) -> int:
    """``p`` if it is a prime that :func:`is_prime` decides exactly."""
    if isinstance(p, int) and p >= PRIME_TEST_BOUND:
        raise NotAPrimeError(
            f"{p} is not below {PRIME_TEST_BOUND}, the bound up to which"
            " primality is decided exactly"
        )
    return ensure_probable_prime(p)


@lru_cache(maxsize=64)
def primes_below(limit: int) -> tuple[int, ...]:
    """All primes strictly below ``limit``, ascending (simple sieve)."""
    if limit <= 2:
        return ()
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return tuple(i for i in range(limit) if sieve[i])


@lru_cache(maxsize=4096)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of ``n`` >= 1, ascending (trial division by
    small primes, then Pollard-Brent rho)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_factor(m)
            pending += (d, m // d)
    return tuple(sorted(out))


def _rho_factor(n: int) -> int:
    """A proper factor of the composite ``n``, which has no factor below
    50 (Brent's cycle finding with batched gcds, polynomial x^2 + c for
    c = 1, 2, ... until one splits n), within RHO_STEPS steps."""
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEPS:
                raise SizeLimitError(
                    f"cannot factor {n}: Pollard-Brent rho found no factor"
                    f" within its limit of {RHO_STEPS} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n`` >= 1, ascending."""
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return tuple(small + large[::-1])


def checked_lcm(a: int, b: int) -> int:
    """lcm(a, b), raising ModulusOverflowError past the 64-bit limit."""
    l = a // math.gcd(a, b) * b
    if l > MAX_MODULUS:
        raise ModulusOverflowError(
            f"combined modulus lcm({a}, {b}) = {l} exceeds the 64-bit limit"
        )
    return l
