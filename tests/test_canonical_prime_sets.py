"""Printed prime sets are canonical by their primes.

``polycoh primes`` prints a type's prime set as classes modulo the least
modulus that gives its primes.  So no printed class is one that holds no
prime, and two types print the same classes exactly when the same primes
are theirs: over every type of ``even_degree_multisets(24, 4)`` and the
golden named types, printed sets that differ hold different primes.
"""

import json
from itertools import combinations

import pytest
from test_golden_cli import NAMED, run

from polycoh.residues import class_contains_prime, make, prime_subset
from polycoh.verify import even_degree_multisets

TYPES = [",".join(map(str, ms)) for ms in even_degree_multisets(24, 4)] + list(NAMED)


def printed_set(degrees):
    """The classes that ``primes --format json`` prints, as they are printed."""
    case = run(["primes", "--degrees", degrees, "--format", "json"])
    assert case["code"] == 0, degrees
    doc = json.loads(case["stdout"])
    return json.dumps({"modulus": doc["modulus"], "residues": doc["residues"]})


@pytest.fixture(scope="module")
def printed():
    return {degrees: printed_set(degrees) for degrees in TYPES}


def test_no_printed_class_lacks_a_prime(printed):
    for text in set(printed.values()):
        doc = json.loads(text)
        assert all(class_contains_prime(r, doc["modulus"]) for r in doc["residues"]), text


def test_equal_prime_content_prints_equal_bytes(printed):
    sets = {text: make(**json.loads(text)) for text in set(printed.values())}
    assert len(sets) > 200
    for (one, a), (other, b) in combinations(sorted(sets.items()), 2):
        assert not (prime_subset(a, b) and prime_subset(b, a)), (one, other)


@pytest.mark.parametrize(
    "degrees, modulus, residues",
    [
        ("6", 3, [1]),
        ("12", 3, [1]),
        ("Spin(14)+Spin(14)", 2, [1]),
        ("4,6,10", 15, [1, 4, 11]),
        ("Spin(8)+D_10", 5, [1, 4]),
    ],
)
def test_printed_sets_of_types_that_once_kept_dead_classes(degrees, modulus, residues):
    assert json.loads(printed_set(degrees)) == {"modulus": modulus, "residues": residues}
