import itertools
import math
import time
from collections import Counter
from functools import lru_cache
from random import Random

import pytest

import polycoh.molien as molien_mod
from polycoh.errors import (
    InternalArithmeticError,
    InvalidParametersError,
    SizeLimitError,
)
from polycoh.cli import _molien_sweep
from polycoh.molien import (
    MAX_GROUP_ORDER,
    MAX_MOLIEN_WORK,
    MAX_TALLY_CELLS,
    _cycle_types,
    _orbit_value,
    _tallies,
    doubled_degrees,
    group_order,
    invariant_degrees,
    molien_series,
    verify_degrees,
)
from polycoh.ntheory import divisors

LARGER = [(2, 1, 4), (3, 3, 4), (4, 2, 4), (2, 1, 5), (2, 2, 5)]


# ---------------------------------------------------------------- group model
#
# The reference below builds every element of G(m, r, n), a permutation
# with a phase vector summing to 0 mod r, and tallies its cycle shape: the
# sorted (length, phase sum mod m) pairs of its cycles.


def brute_shape_counts(m, r, n):
    shapes = Counter()
    for perm in itertools.permutations(range(n)):
        for phases in itertools.product(range(m), repeat=n):
            if sum(phases) % r:
                continue
            seen, shape = set(), []
            for start in range(n):
                length, e, i = 0, 0, start
                while i not in seen:
                    seen.add(i)
                    e += phases[i]
                    length += 1
                    i = perm[i]
                if length:
                    shape.append((length, e % m))
            shapes[tuple(sorted(shape))] += 1
    return shapes


def walked_cycle_types(n):
    """The cycle types Cauchy's formula replaced: all n! permutations are
    walked and each one's sorted cycle lengths are counted."""
    types = Counter()
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                length += 1
                i = perm[i]
            if length:
                lengths.append(length)
        types[tuple(sorted(lengths))] += 1
    return types


# The per-shape sum the partial-sum pass replaced: the elements of each
# cycle shape are counted, each shape's series is built on its own, and the
# series are added weighted by their counts.


def shape_counts(m, r, n):
    """How many elements of G(m, r, n) have each cycle shape: a permutation
    with k cycles and given cycle sums carries m^(n-k) phase vectors."""
    shapes = Counter()
    for lengths, perms in walked_cycle_types(n).items():
        weight = perms * m ** (n - len(lengths))
        for sums in itertools.product(range(m), repeat=len(lengths)):
            if sum(sums) % r == 0:
                shapes[tuple(sorted(zip(lengths, sums)))] += weight
    return shapes


def cycle_product_series(shape, m, order):
    """Tally form of prod 1/(1 - zeta^e t^len) up to t^(order-1), each factor
    applied through the recurrence R = S + zeta^e t^len R."""
    cur = [[0] * m for _ in range(order)]
    cur[0][0] = 1
    for length, e in shape:
        rot = [(u - e) % m for u in range(m)]
        for j in range(length, order):
            prev = cur[j - length]
            row = cur[j]
            cur[j] = [row[u] + prev[rot[u]] for u in range(m)]
    return cur


def tallies_by_shape(shapes, m, order):
    total = [[0] * m for _ in range(order)]
    for shape, count in shapes.items():
        series = cycle_product_series(shape, m, order)
        for j in range(order):
            for u in range(m):
                total[j][u] += count * series[j][u]
    return total


def test_shape_counts_equal_the_element_tally():
    # the reference the differential test below compares against
    for m, r, n in _molien_sweep() + LARGER:
        assert shape_counts(m, r, n) == brute_shape_counts(m, r, n)


def test_tallies_equal_the_per_shape_sum():
    for m, r, n in _molien_sweep() + LARGER:
        order = 1 + sum(invariant_degrees(m, r, n))
        expected = tallies_by_shape(shape_counts(m, r, n), m, order)
        assert _tallies(m, r, n, order) == expected, (m, r, n)


def test_tallies_equal_the_element_tally():
    cases = [(1, 1, 3), (2, 1, 3), (3, 3, 3), (4, 2, 3), (6, 3, 2), (2, 2, 4), (3, 1, 4)]
    for m, r, n in cases:
        order = 2 + sum(invariant_degrees(m, r, n))
        expected = tallies_by_shape(brute_shape_counts(m, r, n), m, order)
        assert _tallies(m, r, n, order) == expected, (m, r, n)


def test_t0_tally_is_the_group_order():
    # every element contributes zeta^0 to the constant term, and nothing else
    cases = [(1, 1, 2), (3, 1, 2), (6, 6, 2), (4, 2, 2), (2, 1, 3), (3, 3, 3)]
    for m, r, n in cases + [(6, 1, 5)]:
        size = group_order(m, r, n)
        assert size == m**n * math.factorial(n) // r
        assert _tallies(m, r, n, 1) == [[size] + [0] * (m - 1)]


def test_group_budget_and_validation():
    with pytest.raises(SizeLimitError, match=f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"):
        molien_series(100, 1, 5, 1)
    with pytest.raises(InvalidParametersError):
        molien_series(6, 4, 2, 1)  # r does not divide m
    with pytest.raises(InvalidParametersError):
        molien_series(0, 1, 2, 1)


def test_group_order_validates_its_group():
    assert group_order(6, 3, 2) == 24
    for m, r, n in ((6, 4, 2), (0, 1, 1), (-2, 1, 3), (2, 1, 0), (2, 0, 1)):
        with pytest.raises(InvalidParametersError):
            group_order(m, r, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: molien_series(2, 1, 10**5, 1),
        lambda: molien_series(2, 1, 10**6, 1),
        lambda: verify_degrees(2, 1, 10**6),
        lambda: group_order(2, 1, 10**6),
    ],
)
def test_group_order_is_bounded_before_it_is_computed(call):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"):
        call()
    assert time.perf_counter() - start < 1


def test_group_order_limit_is_inclusive():
    # a group of up to MAX_GROUP_ORDER elements fits, one more does not
    for m, r, n in ((1, 1, 10), (5, 5, 4), (10**7, 1, 1), (2 * 10**7, 2, 1)):
        assert group_order(m, r, n) == m**n * math.factorial(n) // r
    for m, r, n in ((1, 1, 11), (100, 1, 5), (10**7 + 1, 1, 1)):
        with pytest.raises(SizeLimitError):
            group_order(m, r, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: molien_series(2, 1, 1, 10**9),
        lambda: verify_degrees(30000, 1, 1),
        lambda: verify_degrees(3000, 1, 1),
    ],
)
def test_tally_table_is_bounded(call):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=f"MAX_TALLY_CELLS = {MAX_TALLY_CELLS}"):
        call()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("call", [(1000, 1, 2, 100), (2236, 1, 2, 44)])
def test_molien_work_is_bounded(call):
    # both fit MAX_TALLY_CELLS, and took 10 s and 20 s unbounded
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=f"MAX_MOLIEN_WORK = {MAX_MOLIEN_WORK}"):
        molien_series(*call)
    assert time.perf_counter() - start < 0.1


def test_molien_work_counts_the_cells_the_pass_adds_and_is_inclusive(monkeypatch):
    cells = 0
    add_quotient = molien_mod._add_quotient

    def counted(target, series, e, length):
        nonlocal cells
        cells += len(series) * len(target[0])
        add_quotient(target, series, e, length)

    monkeypatch.setattr(molien_mod, "_add_quotient", counted)
    want = molien_series(6, 3, 4, 30)
    work = cells
    monkeypatch.setattr(molien_mod, "MAX_MOLIEN_WORK", work)
    assert molien_series(6, 3, 4, 30) == want
    monkeypatch.setattr(molien_mod, "MAX_MOLIEN_WORK", work - 1)
    with pytest.raises(SizeLimitError, match=f"adds up {work} tally cells"):
        molien_series(6, 3, 4, 30)


def test_symmetric_group_on_ten_points_verifies_at_once():
    start = time.perf_counter()
    assert verify_degrees(1, 1, 10)
    assert time.perf_counter() - start < 1


def test_larger_groups_fit_the_limits_and_verify():
    for m, r, n in LARGER + [(6, 1, 4), (6, 6, 4), (4, 4, 5), (30, 30, 3)]:
        assert verify_degrees(m, r, n), (m, r, n)
    start = time.perf_counter()
    assert verify_degrees(20, 1, 4)
    assert time.perf_counter() - start < 2


def test_membership_constraint_enforced():
    # G(m, r, 1) holds the scalars zeta^a with a = 0 mod r, so the t^1
    # tally marks exactly the multiples of r
    for m, r in ((6, 3), (4, 4), (5, 1), (6, 6)):
        assert _tallies(m, r, 1, 2)[1] == [int(u % r == 0) for u in range(m)]
    # and the reference shapes: every element's phase sum is 0 mod r
    for m, r, n in ((3, 3, 2), (6, 2, 3), (4, 4, 3)):
        for shape in shape_counts(m, r, n):
            assert sum(e for _, e in shape) % r == 0
    assert ((1, 0), (1, 1)) not in shape_counts(3, 3, 2)


# A permutation with k cycles and given cycle sums carries m^(n-k) phase
# vectors, and the cycle factor of each cycle is 1 - zeta^e t^length.


def test_cycle_types_equal_the_permutation_walk():
    for n in range(1, 9):
        types = _cycle_types(n)
        assert types == walked_cycle_types(n), n
        assert sum(types.values()) == math.factorial(n)
    # the partitions of 10, at most 42 types for any admitted group
    assert len(_cycle_types(10)) == 42


def test_cycle_factors_identity():
    # only the identity: three fixed points, each with phase 0
    assert _cycle_types(3)[(1, 1, 1)] == 1
    assert shape_counts(5, 1, 3)[((1, 0), (1, 0), (1, 0))] == 1


def test_cycle_factors_full_cycle_phase_sum():
    # two 3-cycles, each with 3^2 phase vectors summing to 0 mod 3
    assert _cycle_types(3)[(3,)] == 2
    assert shape_counts(3, 3, 3)[((3, 0),)] == 2 * 3**2


def test_cycle_factors_transposition():
    # one transposition, with 4 phase vectors summing to 1 mod 4
    assert _cycle_types(2) == {(1, 1): 1, (2,): 1}
    assert shape_counts(4, 1, 2)[((2, 1),)] == 4


# ---------------------------------------------------------------- molien series


def test_molien_symmetric_group_two_variables():
    assert molien_series(1, 1, 2, 5) == (1, 1, 2, 2, 3)


def test_molien_cyclic_group_one_variable():
    assert molien_series(3, 1, 1, 7) == (1, 0, 0, 1, 0, 0, 1)


def test_molien_constant_term_is_one():
    for m, r, n in ((1, 1, 1), (4, 2, 2), (6, 3, 2), (5, 5, 2)):
        assert molien_series(m, r, n, 3)[0] == 1


def test_molien_matches_closed_form_product():
    # for a reflection group the series is prod 1/(1 - t^d) exactly
    m, r, n = 6, 3, 2
    degs = invariant_degrees(m, r, n)
    order = 25
    series = molien_series(m, r, n, order)
    closed = [0] * order
    closed[0] = 1
    for d in degs:
        for j in range(d, order):
            closed[j] += closed[j - d]
    assert list(series) == closed


def test_invariant_degrees_formula():
    assert invariant_degrees(4, 4, 2) == (2, 4)
    assert invariant_degrees(6, 6, 2) == (2, 6)
    assert invariant_degrees(3, 1, 2) == (3, 6)
    assert invariant_degrees(30, 1, 2) == (30, 60)
    assert invariant_degrees(6, 1, 1) == (6,)
    assert doubled_degrees(6, 3, 2) == (8, 12)
    assert doubled_degrees(3, 1, 2) == (6, 12)


# ---------------------------------------------------------------- verification


def test_verify_degrees_matches_known_rows():
    assert verify_degrees(4, 4, 2)  # type {4, 8}
    assert verify_degrees(6, 6, 2)  # type {4, 12}
    assert verify_degrees(3, 1, 2)  # type {6, 12}
    assert verify_degrees(1, 1, 3)  # symmetric group
    assert verify_degrees(5, 1, 1)


def test_verify_degrees_rejects_wrong_claim(monkeypatch):
    import polycoh.molien as molien_mod

    monkeypatch.setattr(
        molien_mod, "invariant_degrees", lambda m, r, n: (2, 7)
    )
    assert not molien_mod.verify_degrees(6, 6, 2)


# ---------------------------------------------------- Galois-orbit reduction
#
# The oracle below is the reduction the orbit reduction replaced: the
# tally, a polynomial in zeta, reduced modulo the m-th cyclotomic
# polynomial into the power basis of Q(zeta_m), where it is rational iff
# only the constant coordinate survives.


def _polydiv_exact(num, den):
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = num[i + deg_d]
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert not any(num[:deg_d])
    return tuple(quot)


@lru_cache(maxsize=None)
def old_cyclotomic_polynomial(m):
    poly = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, old_cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _old_zeta_power_table(m):
    phi = old_cyclotomic_polynomial(m)
    deg = len(phi) - 1
    top = tuple(-c for c in phi[:deg])
    rows = [tuple(1 if i == j else 0 for i in range(deg)) for j in range(min(deg, m))]
    for _ in range(deg, m):
        prev = rows[-1]
        shifted = (0,) + prev[: deg - 1]
        rows.append(tuple(shifted[i] + prev[deg - 1] * top[i] for i in range(deg)))
    return tuple(rows)


def old_reduction(tally, m):
    """The value of sum tally[u] zeta^u if it is rational, else None."""
    table = _old_zeta_power_table(m)
    vec = [0] * len(table[0])
    for e, c in enumerate(tally):
        for i, x in enumerate(table[e % m]):
            vec[i] += c * x
    return None if any(vec[1:]) else vec[0]


def test_cyclotomic_polynomials_small():
    assert old_cyclotomic_polynomial(1) == (-1, 1)
    assert old_cyclotomic_polynomial(2) == (1, 1)
    assert old_cyclotomic_polynomial(3) == (1, 1, 1)
    assert old_cyclotomic_polynomial(4) == (1, 0, 1)
    assert old_cyclotomic_polynomial(6) == (1, -1, 1)
    assert old_cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    def totient(m):
        return sum(1 for a in range(m) if math.gcd(a, m) == 1)

    for m in range(1, 40):
        assert len(old_cyclotomic_polynomial(m)) - 1 == totient(m)


def test_product_of_cyclotomics_is_x_to_m_minus_one():
    for m in (1, 2, 6, 12, 30):
        prod = [1]
        for d in divisors(m):
            phi = old_cyclotomic_polynomial(d)
            nxt = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    nxt[i + j] += a * b
            prod = nxt
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected


def test_cyclotomic_rationality():
    zeta = [0, 1, 0, 0, 0]
    assert old_reduction(zeta, 5) is None and _orbit_value(zeta, 5) is None
    # zeta + zeta^2 + zeta^3 + zeta^4 = -1
    units = [0, 1, 1, 1, 1]
    assert old_reduction(units, 5) == _orbit_value(units, 5) == -1
    # the m-th roots of unity sum to 0 for m > 1
    for m in range(1, 13):
        assert old_reduction([1] * m, m) == _orbit_value([1] * m, m) == (m == 1)


def test_orbit_reduction_matches_field_reduction_on_random_stable_tallies():
    rng = Random(20261018)
    for m in range(1, 41):
        for _ in range(5):
            per_orbit = {d: rng.randint(-50, 50) for d in range(1, m + 1) if m % d == 0}
            tally = [per_orbit[math.gcd(u, m)] for u in range(m)]
            value = _orbit_value(tally, m)
            assert value is not None
            assert value == old_reduction(tally, m), (m, tally)


def test_orbit_reduction_matches_field_reduction_on_group_tallies(monkeypatch):
    seen = []

    def spy(tally, m):
        seen.append((list(tally), m))
        return _orbit_value(tally, m)

    monkeypatch.setattr(molien_mod, "_orbit_value", spy)
    orders = 0
    for m in range(1, 9):
        for r in range(1, m + 1):
            if m % r:
                continue
            for n in range(1, 4):
                order = 1 + sum(invariant_degrees(m, r, n))
                molien_series(m, r, n, order)
                orders += order
    assert len(seen) == orders
    for tally, m in seen:
        value = _orbit_value(tally, m)
        assert value is not None and value == old_reduction(tally, m), (m, tally)


@pytest.mark.parametrize(
    "tally, m, rational",
    [
        ([0, 1, 0, 0, 0], 5, None),  # zeta_5 alone
        ([0, 1, 0, 0, 1, 0], 6, 0),  # zeta_6 + zeta_6^4 = 0, yet not stable
    ],
)
def test_orbit_reduction_rejects_unstable_tallies(tally, m, rational):
    assert old_reduction(tally, m) == rational
    assert _orbit_value(tally, m) is None


def test_molien_series_detects_a_missing_element(monkeypatch):
    full = molien_mod._cycle_types

    def without_the_identity(n):
        types = full(n)
        types[(1,) * n] -= 1
        return types

    monkeypatch.setattr(molien_mod, "_cycle_types", without_the_identity)
    with pytest.raises(InternalArithmeticError):
        molien_series(3, 1, 2, 4)
