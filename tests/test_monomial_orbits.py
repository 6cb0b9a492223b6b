"""A second exact oracle for the degrees of G(m, r, n): monomial orbits.

The diagonal subgroup of G(m, r, n) holds diag(zeta^a_1, ..., zeta^a_n)
with a_1 + ... + a_n = 0 (mod r).  The monomials it fixes are those whose
exponents are all = c (mod m), with c a multiple of m/r, and they span its
invariants.  The permutation matrices, which lie in G(m, r, n), permute
those monomials, so the invariants of G(m, r, n) in degree j are counted
by the S_n-orbits of such exponent vectors summing to j.  With
e_i = c + m * k_i, an orbit is a multiset of n numbers k_i >= 0 summing to
(j - n * c) / m: a partition count.  No root of unity and no group element
is involved.
"""

import math
import time
from collections import Counter
from functools import lru_cache
from itertools import count, takewhile

from polycoh.cli import _molien_sweep
from polycoh.molien import doubled_degrees, invariant_degrees, molien_series
from polycoh.ntheory import prime_factors
from polycoh.residues import normalize

# Every even degree up to 120, four times: its candidates are every catalog
# instance with degrees <= 120.
UP_TO_120 = [d for d in range(2, 121, 2) for _ in range(4)]

# The Lie rows as monomial groups: (m, r) of G(m, r, n), and whether the
# catalog row is the reflection representation on the sum-zero hyperplane.
LIE_ROWS = {"SU": (1, 1, True), "Sp": (2, 1, False), "Spin": (2, 2, False)}


@lru_cache(maxsize=None)
def multisets(total, n):
    """Multisets of n integers >= 0 summing to ``total``: either one of them
    is 0, or subtracting 1 from each leaves a multiset summing to total - n."""
    if total < 0 or n == 0:
        return int(total == 0 and n == 0)
    return multisets(total, n - 1) + multisets(total - n, n)


def orbit_counts(m, r, n, order):
    """Dimensions of the invariants of G(m, r, n) in degrees 0 .. order-1."""
    counts = [0] * order
    for c in range(0, m, m // r):
        for k in range((order - 1 - n * c) // m + 1):
            counts[n * c + m * k] += multisets(k, n)
    return counts


def product_series(degrees, order):
    """prod_i 1 / (1 - t^{d_i}) up to t^(order-1)."""
    closed = [1] + [0] * (order - 1)
    for d in degrees:
        for j in range(d, order):
            closed[j] += closed[j - d]
    return closed


def test_small_cases_by_hand():
    assert orbit_counts(1, 1, 2, 5) == [1, 1, 2, 2, 3]  # S_2
    assert orbit_counts(3, 1, 1, 7) == [1, 0, 0, 1, 0, 0, 1]  # C_3
    # G(2, 2, 2) = Klein four: x^2 + y^2 and xy, degrees 2, 2
    assert orbit_counts(2, 2, 2, 6) == [1, 0, 2, 0, 3, 0]


def test_orbit_counts_equal_molien_series():
    for m, r, n in _molien_sweep():
        order = 1 + sum(invariant_degrees(m, r, n))
        series = molien_series(m, r, n, order)
        assert orbit_counts(m, r, n, order) == list(series), (m, r, n)


def test_orbit_counts_equal_catalog_degrees_up_to_120(cat):
    start = time.perf_counter()
    checked = 0
    for m in range(3, 61):
        for r in (r for r in range(1, m + 1) if m % r == 0):
            for n in takewhile(lambda n: 2 * m * (n - 1) <= 120, count(2)):
                degrees = doubled_degrees(m, r, n)
                if max(degrees) > 120:
                    continue
                inst = cat.instance("G(m,r,n)", (m, r, n))
                assert tuple(cat.degrees_of(inst)) == degrees
                assert inst in cat.candidates(degrees)
                order = 1 + sum(invariant_degrees(m, r, n))
                expected = product_series(invariant_degrees(m, r, n), order)
                assert orbit_counts(m, r, n, order) == expected, (m, r, n)
                checked += 1
    assert checked == 560
    assert time.perf_counter() - start < 10


def test_orbit_counts_equal_the_lie_rows_up_to_120(cat):
    # SU(n) = G(1, 1, n) without its invariant x_1 + ... + x_n of degree 1,
    # Sp(n) = G(2, 1, n), Spin(2n) = G(2, 2, n).  Two products of
    # 1 / (1 - t^d) over degrees <= D that agree up to t^D have the same
    # degrees (their ratio starts 1 + e t^d at the least d where the
    # multiplicities differ), so the series are compared up to t^D only.
    checked = Counter()
    for inst in cat.candidates(UP_TO_120):
        if inst.family not in LIE_ROWS:
            continue
        m, r, reduced = LIE_ROWS[inst.family]
        (n,) = inst.params
        halved = [d // 2 for d in cat.degrees_of(inst)]
        order = 1 + max(halved)
        counts = orbit_counts(m, r, n, order)
        if reduced:
            counts = [c - (counts[j - 1] if j else 0) for j, c in enumerate(counts)]
        assert counts == product_series(halved, order), inst.name
        checked[inst.family] += 1
    assert checked == {"SU": 59, "Sp": 30, "Spin": 29}


def test_catalog_prime_sets_are_unit_subgroups(cat):
    # At its canonical modulus N, a catalog prime set is a subgroup of
    # (Z/N)^x, once the classes of the primes dividing N are dropped: the
    # shape of the primes that split completely in an abelian field.
    instances = cat.candidates(UP_TO_120)
    assert {sp.ident for sp in cat.sporadics} <= {inst.name for inst in instances}
    for s in {normalize(cat.prime_set_of(inst)) for inst in instances}:
        n = s.modulus
        units = s.residues - {q % n for q in prime_factors(n)}
        assert 1 % n in units, s
        assert all(math.gcd(a, n) == 1 for a in units), s
        assert all(a * b % n in units for a in units for b in units), s
