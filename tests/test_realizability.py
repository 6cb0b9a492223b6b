import random
import time
from itertools import combinations_with_replacement

import pytest

from polycoh.errors import InvalidTypeError, NotAPrimeError
from polycoh.ntheory import primes_below
from polycoh.realizability import (
    PrimeSpec,
    congruence_classes,
    prime_set_of_type,
    realizable_at_prime,
    realizable_over,
)
from polycoh.residues import (
    ALL_PRIMES,
    as_json_dict,
    class_contains_prime,
    contains_prime,
    make,
    normalize,
)

PRIMES_100 = [p for p in primes_below(101)]


# ---------------------------------------------------------------- prime sets


def test_prime_set_of_torus(cat):
    assert prime_set_of_type(cat, [2, 2, 2]) == ALL_PRIMES


def test_prime_set_of_g2_type(cat):
    assert as_json_dict(prime_set_of_type(cat, [4, 12])) == {
        "modulus": 2,
        "residues": [1],
    }


def test_prime_set_of_g12_type(cat):
    assert as_json_dict(prime_set_of_type(cat, [12, 16])) == {
        "modulus": 8,
        "residues": [1, 3],
    }


def test_prime_set_of_empty_type(cat):
    assert prime_set_of_type(cat, []) == ALL_PRIMES


def test_congruence_classes_examples(cat):
    assert congruence_classes(cat, [4, 12]) == (2, [1])
    assert congruence_classes(cat, [12, 16]) == (8, [1, 3])
    assert congruence_classes(cat, []) == (1, [0])


# ---------------------------------------------------------------- per-prime


def test_realizable_at_prime_examples(cat):
    ok, wit = realizable_at_prime(cat, [4, 6, 8, 10], 7)
    assert ok and wit.names == ("SU(5)",)
    ok, wit = realizable_at_prime(cat, [4, 12], 3)
    assert ok and wit.names == ("G_2",)
    ok, wit = realizable_at_prime(cat, [4, 12], 2)
    assert not ok and wit is None


def test_realizable_at_prime_agrees_with_prime_set(cat):
    targets = [
        ms
        for size in range(0, 3)
        for ms in combinations_with_replacement(range(2, 25, 2), size)
    ]
    rng = random.Random(77)
    targets = rng.sample(targets, 40)
    for ms in targets:
        ps = prime_set_of_type(cat, ms)
        for p in PRIMES_100:
            assert realizable_at_prime(cat, ms, p)[0] == contains_prime(ps, p), (
                ms,
                p,
            )


def test_monoid_closure_at_primes(cat):
    small = [[2], [4], [4, 6], [4, 12], [12, 16], [4, 8], [8]]
    for p in (2, 3, 5, 7, 11, 13, 97):
        for a in small:
            for b in small:
                if realizable_at_prime(cat, a, p)[0] and realizable_at_prime(cat, b, p)[0]:
                    assert realizable_at_prime(cat, sorted(a + b), p)[0]


# ---------------------------------------------------------------- over rings


def test_over_all_primes_true(cat):
    report = realizable_over(cat, [4, 6], PrimeSpec.all_primes())
    assert report.verdict
    assert report.witnesses[2].names == ("SU(3)",)
    assert report.failing_prime is None


def test_over_all_primes_false_names_prime_two(cat):
    report = realizable_over(cat, [4, 12], PrimeSpec.all_primes())
    assert not report.verdict
    assert report.failing_prime == 2


def test_spin_type_over_half_integers(cat):
    spec = PrimeSpec.cofinite([2])
    report = realizable_over(cat, [4, 8, 8, 12], spec)
    assert report.verdict
    assert any(dec.names == ("Spin(8)",) for dec in report.witnesses.values())
    report = realizable_over(cat, [4, 8, 8, 12], PrimeSpec.all_primes())
    assert not report.verdict and report.failing_prime == 2


def test_finite_spec_reports_witness_per_prime(cat):
    report = realizable_over(cat, [4, 12], PrimeSpec.finite([3, 5, 7]))
    assert report.verdict
    assert set(report.witnesses) == {3, 5, 7}
    assert report.witnesses[3].names == ("G_2",)
    assert report.witnesses[7].names == ("G(6,6,2)",)


def test_finite_spec_failure_names_smallest_prime(cat):
    report = realizable_over(cat, [4, 12], PrimeSpec.finite([2, 3]))
    assert not report.verdict
    assert report.failing_prime == 2


def test_empty_prime_spec_always_realizable(cat):
    spec = PrimeSpec.finite([])
    for ms in ([14, 22], [2, 26], [34], []):
        assert realizable_over(cat, ms, spec).verdict


def test_cofinite_is_exact_not_classwise_at_base_modulus(cat):
    # {24} occurs exactly at p = 1 (mod 12); excluding a batch of small
    # primes still leaves (say) 29 uncovered.
    spec = PrimeSpec.cofinite([2, 3, 5, 7, 11, 13, 17, 19, 23])
    report = realizable_over(cat, [24], spec)
    assert not report.verdict
    assert report.failing_prime == 29


def test_cofinite_excluding_enough_primes_succeeds(cat):
    # {4, 12} fails only at 2
    assert realizable_over(cat, [4, 12], PrimeSpec.cofinite([2])).verdict


def test_listable_spec_subset(cat):
    inside = PrimeSpec.listable(normalize(make(24, [1])))
    assert realizable_over(cat, [12, 16], inside).verdict
    outside = PrimeSpec.listable(normalize(make(3, [1])))
    report = realizable_over(cat, [12, 16], outside)
    assert not report.verdict
    assert report.failing_prime == 7  # 7 = 1 mod 3 but 7 = 7 mod 8


def test_listable_spec_with_no_small_witness_reports_class(cat):
    # The class P mod 2P contains exactly the prime P; picking P above the
    # witness scan bound forces the class-level certificate instead of a
    # concrete failing prime.  1000003 = 7 (mod 12) misses the classes of
    # the type {24}.
    big = 1000003
    spec = PrimeSpec.listable(make(2 * big, [big]))
    report = realizable_over(cat, [24], spec)
    assert not report.verdict
    assert report.failing_prime is None
    assert report.failing_class == (big, 12 * big)
    doc = report.to_json_dict()
    assert doc["failingClass"] == {"residue": big, "modulus": 12 * big}


@pytest.mark.parametrize("degrees", [[4, 12, 20], [12, 16]])
def test_failing_class_modulus_may_pass_the_modulus_limit(cat, degrees):
    # The class 1 mod 2^61 - 1 holds no prime below the witness scan bound,
    # and lcm(2^61 - 1, N) exceeds 2^63: the certificate is checked, never
    # built as a residue set.
    classes = make(2**61 - 1, [1])
    report = realizable_over(cat, degrees, PrimeSpec.listable(classes))
    assert not report.verdict and report.failing_prime is None
    residue, modulus = report.failing_class
    assert modulus > 2**63
    assert residue in classes
    assert residue not in report.prime_set
    assert class_contains_prime(residue, modulus)


def test_long_runs_of_one_degree_are_answered(cat):
    # The search is as deep as the type is long.
    start = time.perf_counter()
    report = realizable_over(cat, [2] * 10**4, PrimeSpec.all_primes())
    assert report.verdict
    assert time.perf_counter() - start < 2


def test_ring_monotonicity(cat):
    rng = random.Random(5150)
    targets = [[4, 12], [12, 16], [4, 6], [4, 8, 8, 12], [24]]
    for ms in targets:
        full = realizable_over(cat, ms, PrimeSpec.all_primes())
        for _ in range(5):
            sub = PrimeSpec.finite(rng.sample((2, 3, 5, 7, 11, 13), 3))
            if full.verdict:
                assert realizable_over(cat, ms, sub).verdict


def test_report_json_shape(cat):
    doc = realizable_over(cat, [4, 12], PrimeSpec.all_primes()).to_json_dict()
    assert doc == {
        "degrees": [4, 12],
        "verdict": False,
        "primeSet": {"modulus": 2, "residues": [1]},
        "witnesses": {},
        "failingPrime": 2,
    }
    doc = realizable_over(cat, [4, 6], PrimeSpec.all_primes()).to_json_dict()
    assert doc == {
        "degrees": [4, 6],
        "verdict": True,
        "primeSet": {"modulus": 1, "residues": [0]},
        "witnesses": {"2": ["SU(3)"]},
    }


def test_invalid_inputs(cat):
    with pytest.raises(InvalidTypeError):
        realizable_over(cat, [3], PrimeSpec.all_primes())
    with pytest.raises(NotAPrimeError):
        realizable_at_prime(cat, [4], 8)
    with pytest.raises(NotAPrimeError):
        PrimeSpec.finite([4])


def test_prime_spec_describe():
    assert PrimeSpec.all_primes().describe() == "all primes"
    assert PrimeSpec.finite([5, 2]).describe() == "primes {2, 5}"
    assert PrimeSpec.cofinite([2]).describe() == "all primes except {2}"
    assert PrimeSpec.cofinite([]).describe() == "all primes"
    assert "mod 4" in PrimeSpec.listable(make(4, [1])).describe()
