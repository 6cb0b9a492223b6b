"""Correctness references for every workload.

Nothing here compares against output recorded from the engine:

* sweep: membership in the brute-force union monoids of ``polycoh.verify``
  (types of at most four degrees up to 30), which never call the decomposer.  At p = 2 only S^1, SU(n) and Sp(n)
  occur, so a type outside the integral monoid must fail first at 2.
* primesets and rings: a per-prime scan (entries.py).  A prime p is in a
  type's set iff some decomposition has every part occurring at p, read off
  the benchmark's own table of entries; neither the engine's search nor its
  residue-set algebra plays a part in it.  Every witness must pass a
  certificate check (the parts' ``degrees_of`` union to the target, every
  part satisfies ``occurs_at(p)``) and be the canonical first decomposition
  at that prime.
* rings also carries hand-written expected fields for the README and
  acceptance cases and for the hostile inputs.
* molien: the Molien identity itself, i.e. ``verify_degrees`` is True.
"""

from __future__ import annotations

import itertools
import json
import math

import entries

SCAN_BOUND = 2000
WITNESS_PRIME_BOUND = 10**6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> set[int]:
    return {d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)}


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [i for i in range(limit) if sieve[i]]


SCAN_PRIMES = tuple(_primes_below(SCAN_BOUND))


class WrongVerdict(Exception):
    """The engine's answer disagrees with the reference."""


class Reference:
    def __init__(self) -> None:
        import polycoh
        from polycoh import verify

        self.cat = polycoh.builtin()
        self._verify = verify
        self._monoids: dict[int, set] = {}
        self._masks: dict[tuple, int] = {}
        self._primes_1m: list[int] | None = None

    # -- shared pieces -----------------------------------------------------

    def check(self, query, value) -> None:
        """Raise WrongVerdict if ``value`` is not a correct answer."""
        getattr(self, "_check_" + query.op)(query, value)

    def _monoid(self, p: int) -> set:
        if p not in self._monoids:
            v = self._verify
            gens = v.classical_generator_types(30) if p == 2 else v.p3_generator_types(30)
            self._monoids[p] = v.multiset_monoid(gens, 4)
        return self._monoids[p]

    def _mask(self, target: tuple) -> int:
        """Bit i set iff SCAN_PRIMES[i] is in the type's prime set."""
        if target not in self._masks:
            self._masks[target] = entries.prime_mask(target, SCAN_PRIMES)
        return self._masks[target]

    def _member(self, target: tuple, p: int) -> bool:
        if p < SCAN_BOUND:
            return bool(self._mask(target) >> SCAN_PRIMES.index(p) & 1)
        return bool(entries.prime_mask(target, (p,)))

    def _certificate(self, target: tuple, names: list, p: int, canonical: bool) -> None:
        cat = self.cat
        parts = [cat.lookup(name) for name in names]
        union = sorted(d for part in parts for d in cat.degrees_of(part).degrees)
        if union != sorted(target):
            raise WrongVerdict(f"witness {names} has degrees {union}, not {list(target)}")
        for part in parts:
            if not cat.occurs_at(part, p):
                raise WrongVerdict(f"witness part {part.name} does not occur at p={p}")
        if canonical:
            first = entries.canonical_witness(target, p)
            if first != tuple(names):
                raise WrongVerdict(f"witness {names} at p={p} is not the canonical {first}")

    # -- sweep -------------------------------------------------------------

    def _check_over_z(self, query, value) -> None:
        target = query.target
        expected = target in self._monoid(2)
        if value["verdict"] != expected:
            raise WrongVerdict(f"verdict {value['verdict']}, monoid says {expected}")
        if expected:
            self._certificate(target, value["witnesses"]["2"], 2, canonical=False)
        elif value["failingPrime"] != 2:
            raise WrongVerdict(f"failing prime {value['failingPrime']}, expected 2")

    def _check_at_prime(self, query, value) -> None:
        target, p = query.target, query.args[1]
        expected = target in self._monoid(p)
        if value["realizable"] != expected:
            raise WrongVerdict(f"realizable {value['realizable']}, monoid says {expected}")
        if expected:
            self._certificate(target, value["witness"], p, canonical=False)

    # -- primesets ---------------------------------------------------------

    def _check_classes(self, query, value) -> None:
        self._check_prime_set(query.target, value["modulus"], value["residues"])

    def _check_prime_set(self, target: tuple, modulus: int, residues: list) -> None:
        res = set(residues)
        if sorted(res) != residues or any(not 0 <= r < modulus for r in residues):
            raise WrongVerdict(f"malformed residues {residues} mod {modulus}")
        mask = self._mask(target)
        for i, p in enumerate(SCAN_PRIMES):
            scan = bool(mask >> i & 1)
            if (p % modulus in res) != scan:
                raise WrongVerdict(
                    f"p={p} is {'out of' if scan else 'in'} the answered set "
                    f"({len(residues)} residues mod {modulus}), the per-prime scan "
                    f"says {'in' if scan else 'out'}"
                )

    # -- rings -------------------------------------------------------------

    def _check_cli(self, query, value) -> None:
        doc = json.loads(value["stdout"])
        for key, want in (query.expect or {}).items():
            if doc.get(key) != want:
                raise WrongVerdict(f"{key} is {doc.get(key)!r}, expected {want!r}")
        if doc["degrees"] != sorted(query.target):
            raise WrongVerdict(f"degrees {doc['degrees']} != {sorted(query.target)}")
        if not query.scan:
            return
        argv = query.args[0]
        if argv[0] == "witness":
            p = int(argv[argv.index("--prime") + 1])
            expected = self._member(query.target, p)
            if doc["realizable"] != expected:
                raise WrongVerdict(f"realizable at {p} is {doc['realizable']}, scan says {expected}")
            if expected:
                self._certificate(query.target, doc["witness"], p, canonical=True)
            return
        ps = doc["primeSet"]
        self._check_prime_set(query.target, ps["modulus"], ps["residues"])
        self._check_ring(query.target, argv[argv.index("--ring") + 1], doc)

    def _check_ring(self, target: tuple, ring: str, doc: dict) -> None:
        inset = lambda p: self._member(target, p)  # noqa: E731
        verdict = doc["verdict"]
        witnesses = {int(p): names for p, names in doc["witnesses"].items()}
        for p, names in witnesses.items():
            self._certificate(target, names, p, canonical=True)
        failing = doc.get("failingPrime")

        if ring == "Q":
            listed = []
        elif ring.startswith("F_"):
            listed = [int(ring[2:])]
        elif ring.startswith("primes=") and not ring.startswith("primes=mod:"):
            listed = sorted({int(x) for x in ring[len("primes="):].split(",")})
        else:
            listed = None
        if listed is not None:
            bad = [p for p in listed if not inset(p)]
            if verdict != (not bad):
                raise WrongVerdict(f"verdict {verdict} over {listed}, failing {bad}")
            if sorted(witnesses) != [p for p in listed if inset(p)]:
                raise WrongVerdict(f"witness primes {sorted(witnesses)} over {listed}")
            if bad and failing != bad[0]:
                raise WrongVerdict(f"failing prime {failing}, expected {bad[0]}")
            return

        if ring == "Z" or ring.startswith("Z["):
            excluded = set()
            if ring.startswith("Z["):
                for piece in ring[2:-1].split(","):
                    excluded |= _prime_factors(int(piece.split("/")[1]))
            classes = None
        else:
            _, n, res = ring.split(":")
            modulus, residues = int(n), {int(x) % int(n) for x in res.split(",")}
            classes, excluded = (modulus, residues), set()

        def in_spec(p: int) -> bool:
            return p not in excluded and (classes is None or p % classes[0] in classes[1])

        def spec_primes_below(limit: int):
            primes = SCAN_PRIMES if classes is None else self._witness_primes()
            return (p for p in primes if p < limit and in_spec(p))

        if verdict:
            if failing is not None:
                raise WrongVerdict("failing prime on a true verdict")
            sample = tuple(itertools.islice(spec_primes_below(WITNESS_PRIME_BOUND), 40))
            mask = entries.prime_mask(target, sample)
            for i, p in enumerate(sample):
                if not mask >> i & 1:
                    raise WrongVerdict(f"verdict true but the scan excludes p={p}")
            if sorted(witnesses) != list(sample[:1]):
                raise WrongVerdict(f"witness primes {sorted(witnesses)}, expected {sample[:1]}")
        elif failing is not None:
            if not (_is_prime(failing) and in_spec(failing) and not inset(failing)):
                raise WrongVerdict(f"failing prime {failing} is not a failing prime of the spec")
            for p in spec_primes_below(failing):
                if not inset(p):
                    raise WrongVerdict(f"failing prime {failing}, but {p} fails already")
        elif "failingClass" not in doc:
            raise WrongVerdict("false verdict without a failing prime or class")

    def _witness_primes(self) -> list[int]:
        if self._primes_1m is None:
            self._primes_1m = _primes_below(WITNESS_PRIME_BOUND)
        return self._primes_1m

    # -- molien ------------------------------------------------------------

    def _check_molien(self, query, value) -> None:
        if value["verdict"] is not True:
            raise WrongVerdict(f"Molien identity fails for {query.label}")
