"""Exact Molien-series verification of the monomial reflection families.

G(m, r, n) is the group of n x n monomial matrices whose nonzero entries
are m-th roots of unity with phase product an (m/r)-th root of unity: a
permutation of the n coordinates with a phase vector in (Z/m)^n, the
exponents of its entries, that sums to 0 mod r.  Its ring of invariant
polynomial functions is free on generators of degrees m, 2m, ..., (n-1)m,
mn/r (in the convention where linear forms have degree one; consumers
working with doubled cohomological degrees halve first or use
:func:`doubled_degrees`).

This module recomputes the graded dimension series of the invariant ring
directly from the group average

    M(t) = 1/|G| * sum_g 1 / det(1 - t g)
         = 1/|G| * sum_g prod_cycles 1 / (1 - zeta^e t^len)

and checks it against the claimed degrees, i.e. that M(t) equals
prod_i 1 / (1 - t^{d_i}) up to the truncation order.  Everything is exact
integer arithmetic; a verdict carries no tolerance.

Expansion strategy: each factor 1/(1 - zeta^e t^len) is a geometric series,
so a group element's series has coefficients that are Z-linear tallies of
root-of-unity powers.  Those tallies are accumulated unreduced (exactly) in
the group ring of Z/m.  No group element is built: the permutations of
each cycle type are counted by Cauchy's formula, and for each type the
product is summed over the cycle phases one cycle at a time, keyed by the
partial phase sum mod r (:func:`_tallies`).  The summed tallies are
Galois-stable, because zeta -> zeta^k (k a unit mod m) permutes
G(m, r, n); so each is constant on the orbits {u : gcd(u, m) = d}, and is
read off as an integer with the Moebius function (:func:`_orbit_value`).
A tally that is not constant on its orbits, or an average that is not a
nonnegative integer, is a bug.
The group order is capped by MAX_GROUP_ORDER, the tally table by
MAX_TALLY_CELLS and the cells the pass adds up by MAX_MOLIEN_WORK; each
refusal raises SizeLimitError before any work.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from operator import add
from typing import Iterator

from .errors import InternalArithmeticError, InvalidParametersError, SizeLimitError
from .ntheory import prime_factors

# The most elements a group may have: m^n * n! / r.  As m^n >= r, it also
# bounds n! and so n <= 10.
MAX_GROUP_ORDER = 10**7

# The most tally cells one partial-sum level of the Molien pass may hold:
# r series of order x m integers.
MAX_TALLY_CELLS = 10**5

# The most tally cells the Molien pass may add up, a bound on its time: at
# about 10^7 cells per second, one second.
MAX_MOLIEN_WORK = 10**7


def _mobius(n: int) -> int:
    """mu(n): (-1)^k if n is a product of k distinct primes, else 0."""
    primes = prime_factors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def _orbit_value(tally: list[int], m: int) -> int | None:
    """sum_u tally[u] * zeta^u for zeta a primitive m-th root of unity, or
    None unless the tally is constant on every Galois orbit.

    The orbits of zeta -> zeta^k (k a unit mod m) on Z/m are the sets
    {u : gcd(u, m) = d} for d | m, and the zeta^u of one orbit are the
    primitive (m/d)-th roots of unity, which sum to mu(m/d).
    """
    if any(t != tally[math.gcd(u, m) % m] for u, t in enumerate(tally)):
        return None
    return sum(tally[d % m] * _mobius(m // d) for d in range(1, m + 1) if m % d == 0)


def _validate_group(m: int, r: int, n: int) -> None:
    if m < 1 or n < 1 or r < 1 or m % r:
        raise InvalidParametersError(f"G(m={m}, r={r}, n={n}) needs m, n >= 1 and r | m")


def group_order(m: int, r: int, n: int) -> int:
    """The order m^n * n! / r of G(m, r, n), refused past MAX_GROUP_ORDER
    before it is computed: m^n * n! is multiplied up one factor m * i at a
    time and compared with MAX_GROUP_ORDER * r, so a few steps decide any n."""
    _validate_group(m, r, n)
    product = 1
    for i in range(1, n + 1):
        product *= m * i
        if product > MAX_GROUP_ORDER * r:
            raise SizeLimitError(
                f"G({m},{r},{n}) has more than MAX_GROUP_ORDER = "
                f"{MAX_GROUP_ORDER} elements"
            )
    return product // r


def _partitions(n: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts >= smallest, as ascending tuples."""
    if n == 0:
        yield ()
    for part in range(smallest, n + 1):
        yield from ((part,) + rest for rest in _partitions(n - part, part))


def _cycle_types(n: int) -> Counter:
    """How many permutations of n points have each cycle type, the sorted
    tuple of their cycle lengths: by Cauchy's formula, n! / prod_l
    (l^a_l * a_l!) for a_l cycles of length l."""
    return Counter({
        lengths: math.factorial(n) // math.prod(
            length**a * math.factorial(a) for length, a in Counter(lengths).items()
        )
        for lengths in _partitions(n)
    })


def _add_quotient(
    target: list[list[int]], series: list[list[int]], e: int, length: int
) -> None:
    """target += series / (1 - zeta^e t^length), row by row in place.

    The quotient R obeys R = S + zeta^e t^length R: its row j is row j of S
    plus row j - length of R rotated by e.  Each row is added into target
    as soon as it is known.
    """
    m = len(target[0])
    quotient = []
    for j, row in enumerate(series):
        if j >= length:
            prev = quotient[j - length]
            row = list(map(add, row, prev[m - e :] + prev[: m - e]))
        quotient.append(row)
        target[j] = list(map(add, target[j], row))


def _tallies(m: int, r: int, n: int, order: int) -> list[list[int]]:
    """sum over G(m, r, n) of prod_cycles 1/(1 - zeta^e t^len), up to
    t^(order-1), in tally form: row j is the coefficient of t^j as
    multiplicities of zeta^0..zeta^(m-1).

    Summing the phases over each of a permutation's k cycles maps (Z/m)^n
    onto (Z/m)^k, so every tuple of cycle sums (e_1, ..., e_k) comes from
    m^(n-k) phase vectors, whose elements lie in G(m, r, n) iff
    e_1 + ... + e_k = 0 (mod r).  For each cycle type the product is summed
    over those tuples one cycle at a time: state[s] is the sum, over the
    phase tuples of the cycles handled so far whose sum is s mod r, of
    their factors' product.  Each cycle takes every state[s] through every
    phase e into state (s + e) mod r; at the last cycle only the e with
    s + e = 0 (mod r) are run, and state[0] is the type's sum.  The first
    cycle starts from the series 1, whose quotient by 1 - zeta^e t^len is
    written sparsely: zeta^(e*i) in row i*len.

    A type of k >= 2 cycles runs m + (k - 2) * r * m quotients of order x m
    cells each; their sum over the types is refused past MAX_MOLIEN_WORK.
    """
    types = _cycle_types(n)
    work = order * m * sum(m + (len(t) - 2) * r * m for t in types if len(t) > 1)
    if work > MAX_MOLIEN_WORK:
        raise SizeLimitError(
            f"G({m},{r},{n}) to order {order} adds up {work} tally cells, "
            f"beyond MAX_MOLIEN_WORK = {MAX_MOLIEN_WORK}"
        )
    total = [[0] * m for _ in range(order)]
    for lengths, perms in types.items():
        state = {0: None}  # None is the series 1, before the first cycle
        for index, length in enumerate(lengths):
            last = index == len(lengths) - 1
            new = defaultdict(lambda: [[0] * m for _ in range(order)])
            for s, series in state.items():
                for e in range(-s % r, m, r) if last else range(m):
                    target = new[(s + e) % r]
                    if series is None:
                        for i, j in enumerate(range(0, order, length)):
                            target[j][e * i % m] += 1
                    else:
                        _add_quotient(target, series, e, length)
            state = new
        weight = perms * m ** (n - len(lengths))
        for j, row in enumerate(state[0]):
            total[j] = [t + weight * x for t, x in zip(total[j], row)]
    return total


def molien_series(m: int, r: int, n: int, order: int) -> tuple[int, ...]:
    """The coefficients of t^0 .. t^(order-1) in the graded dimension series
    of the invariant ring of G(m, r, n).

    Each coefficient's summed tally is verified to be Galois-stable and its
    average a nonnegative integer before returning; anything else raises
    InternalArithmeticError (a bug, never bad input).
    """
    if order < 1:
        raise InvalidParametersError(f"truncation order must be >= 1, got {order}")
    size = group_order(m, r, n)
    cells = order * m * r
    if cells > MAX_TALLY_CELLS:
        raise SizeLimitError(
            f"G({m},{r},{n}) to order {order} needs {cells} tally cells, "
            f"beyond MAX_TALLY_CELLS = {MAX_TALLY_CELLS}"
        )
    coeffs = []
    for j, tally in enumerate(_tallies(m, r, n, order)):
        value = _orbit_value(tally, m)
        if value is None:
            raise InternalArithmeticError(
                f"Molien tally of t^{j} for G({m},{r},{n}) is not Galois-stable"
            )
        coeff, rem = divmod(value, size)
        if rem or coeff < 0:
            raise InternalArithmeticError(
                f"Molien coefficient of t^{j} for G({m},{r},{n}) is "
                f"{value}/{size}, not a nonnegative integer"
            )
        coeffs.append(coeff)
    return tuple(coeffs)


def invariant_degrees(m: int, r: int, n: int) -> tuple[int, ...]:
    """Claimed degrees of the basic invariants: m, 2m, ..., (n-1)m, mn/r."""
    _validate_group(m, r, n)
    return tuple(sorted([m * i for i in range(1, n)] + [m * n // r]))


def doubled_degrees(m: int, r: int, n: int) -> tuple[int, ...]:
    """The same degrees in the doubled (cohomological) convention."""
    return tuple(2 * d for d in invariant_degrees(m, r, n))


def verify_degrees(m: int, r: int, n: int) -> bool:
    """Check the claimed degrees against the group-average series.

    True iff  molien_series  equals  prod_i 1 / (1 - t^{d_i})  exactly up to
    order 1 + sum(d_i); as prod_i (1 - t^{d_i}) has constant term 1, this is
    the identity  molien_series * prod_i (1 - t^{d_i}) = 1  there.  The
    window is wide enough: the candidate product of 1/(1 - t^{d_i}) and the
    true series first disagree no later than the degree of
    prod (1 - t^{d_i}) itself, which the window covers in full.
    """
    group_order(m, r, n)
    degs = invariant_degrees(m, r, n)
    order = 1 + sum(degs)
    closed = [1] + [0] * (order - 1)
    for d in degs:
        for j in range(d, order):
            closed[j] += closed[j - d]
    return molien_series(m, r, n, order) == tuple(closed)
