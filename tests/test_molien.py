import math
from functools import lru_cache
from itertools import islice
from random import Random

import pytest

import polycoh.molien as molien_mod
from polycoh.errors import (
    InternalArithmeticError,
    InvalidParametersError,
    SizeLimitError,
)
from polycoh.molien import (
    PhasedPermutation,
    _orbit_value,
    cycle_factors,
    doubled_degrees,
    group_elements,
    group_order,
    invariant_degrees,
    molien_series,
    verify_degrees,
)
from polycoh.ntheory import divisors


# ---------------------------------------------------------------- group model


def test_group_orders_match_stream_length():
    cases = [(1, 1, 2), (3, 1, 2), (6, 6, 2), (4, 2, 2), (2, 1, 3), (3, 3, 3)]
    for m, r, n in cases:
        elems = list(group_elements(m, r, n))
        assert len(elems) == group_order(m, r, n) == m**n * math.factorial(n) // r
        assert len(set(elems)) == len(elems)  # exactly once each


def test_group_budget_and_validation():
    with pytest.raises(SizeLimitError):
        group_elements(100, 1, 5)
    with pytest.raises(InvalidParametersError):
        group_elements(6, 4, 2)  # r does not divide m
    with pytest.raises(InvalidParametersError):
        group_elements(0, 1, 2)


def test_membership_constraint_enforced():
    with pytest.raises(InvalidParametersError):
        PhasedPermutation((0, 1), (1, 0), 3, 3)  # phase sum 1 != 0 mod 3
    with pytest.raises(InvalidParametersError):
        PhasedPermutation((0, 0), (0, 0), 3, 1)  # not a permutation


def test_group_closure_under_composition():
    elems = list(group_elements(4, 2, 2))
    members = set(elems)
    sample = elems[:8]
    for g in sample:
        for h in sample:
            assert g * h in members


def test_cycle_factors_identity():
    g = PhasedPermutation((0, 1, 2), (0, 0, 0), 5, 1)
    assert cycle_factors(g) == [(1, 0), (1, 0), (1, 0)]


def test_cycle_factors_full_cycle_phase_sum():
    g = PhasedPermutation((1, 2, 0), (1, 1, 1), 3, 3)
    assert cycle_factors(g) == [(3, 0)]  # 1+1+1 = 0 mod 3


def test_cycle_factors_transposition():
    g = PhasedPermutation((1, 0), (1, 0), 4, 1)
    assert cycle_factors(g) == [(2, 1)]


# ---------------------------------------------------------------- molien series


def test_molien_symmetric_group_two_variables():
    series = molien_series(1, 1, 2, 5)
    assert series.coefficients == (1, 1, 2, 2, 3)


def test_molien_cyclic_group_one_variable():
    series = molien_series(3, 1, 1, 7)
    assert series.coefficients == (1, 0, 0, 1, 0, 0, 1)


def test_molien_constant_term_is_one():
    for m, r, n in ((1, 1, 1), (4, 2, 2), (6, 3, 2), (5, 5, 2)):
        assert molien_series(m, r, n, 3).coefficients[0] == 1


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
    assert list(series.coefficients) == closed


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


def test_molien_stream_is_lazy_after_validation():
    gen = group_elements(2, 1, 2)
    first = list(islice(gen, 3))
    assert len(first) == 3


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
    full = molien_mod.group_elements
    monkeypatch.setattr(
        molien_mod, "group_elements", lambda *args: iter(list(full(*args))[1:])
    )
    with pytest.raises(InternalArithmeticError):
        molien_series(3, 1, 2, 4)
