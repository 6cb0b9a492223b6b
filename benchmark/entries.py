"""The catalog as the benchmark knows it, written out independently of the
engine: degree patterns and prime conditions of every entry, the entries
that fit inside a type, and a memoized per-prime scan over decompositions.

The benchmark generates its inputs from this table and checks the engine's
answers against scans over it; it never reads the engine's catalog for
either purpose.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

ALL = (1, (0,), ())  # modulus, residues, excluded primes: every prime


@dataclass(frozen=True)
class Entry:
    name: str
    degrees: tuple[int, ...]
    modulus: int
    residues: frozenset[int]
    excluded: frozenset[int]

    def occurs(self, p: int) -> bool:
        return p % self.modulus in self.residues and p not in self.excluded


_FIXED = {
    "S^1": ((2,), ALL),
    "G_2": ((4, 12), (1, (0,), (2,))),
    "F_4": ((4, 12, 16, 24), (1, (0,), (2, 3))),
    "E_6": ((4, 10, 12, 16, 18, 24), (1, (0,), (2, 3))),
    "E_7": ((4, 12, 16, 20, 24, 28, 36), (1, (0,), (2, 3))),
    "E_8": ((4, 16, 24, 28, 36, 40, 48, 60), (1, (0,), (2, 3, 5))),
    # Shephard-Todd sporadics: doubled degrees, primes p == a (mod N).
    "G_8": ((16, 24), (4, (1,), ())),
    "G_9": ((16, 48), (8, (1,), ())),
    "G_12": ((12, 16), (8, (1, 3), ())),
    "G_14": ((12, 48), (24, (1, 19), ())),
    "G_16": ((40, 60), (5, (1,), ())),
    "G_17": ((40, 120), (20, (1,), ())),
    "G_20": ((24, 60), (15, (1, 4), ())),
    "G_21": ((24, 120), (60, (1, 49), ())),
    "G_22": ((24, 40), (20, (1, 9), ())),
    "G_23": ((4, 12, 20), (5, (1, 4), ())),
    "G_24": ((8, 12, 28), (7, (1, 2, 4), (2,))),
    "G_29": ((8, 16, 24, 40), (4, (1,), ())),
    "G_30": ((4, 24, 40, 60), (5, (1, 4), ())),
    "G_31": ((16, 24, 40, 48), (4, (1,), ())),
    "G_32": ((24, 36, 48, 60), (3, (1,), ())),
    "G_33": ((8, 12, 20, 24, 36), (3, (1,), ())),
    "G_34": ((12, 24, 36, 48, 60, 84), (3, (1,), ())),
}


def _make(name: str, degrees, condition) -> Entry:
    modulus, residues, excluded = condition
    return Entry(name, tuple(sorted(degrees)), modulus, frozenset(residues), frozenset(excluded))


def su(n: int) -> Entry:
    return _make(f"SU({n})", range(4, 2 * n + 1, 2), ALL)


def sp(n: int) -> Entry:
    return _make(f"Sp({n})", range(4, 4 * n + 1, 4), ALL)


def spin(n: int) -> Entry:
    """Spin(2n), n >= 3."""
    return _make(f"Spin({2 * n})", [4 * i for i in range(1, n)] + [2 * n], (1, (0,), (2,)))


def gmrn(m: int, r: int, n: int) -> Entry:
    degrees = [2 * m * i for i in range(1, n)] + [2 * m * n // r]
    return _make(f"G({m},{r},{n})", degrees, (m, (1,), ()))


def dihedral(m: int) -> Entry:
    """D_{2m}, m >= 5, m != 6."""
    return _make(f"D_{2 * m}", (4, 2 * m), (m, (1, m - 1), ()))


def cyclic(m: int) -> Entry:
    return _make(f"C_{m}", (2 * m,), (m, (1,), ()))


@lru_cache(maxsize=None)
def entry(name: str) -> Entry:
    """The entry with the given display name."""
    if name in _FIXED:
        return _make(name, *_FIXED[name])
    head, _, rest = name.partition("(")
    if rest:
        args = [int(x) for x in rest.rstrip(")").split(",")]
        if head == "SU":
            return su(args[0])
        if head == "Sp":
            return sp(args[0])
        if head == "Spin":
            return spin(args[0] // 2)
        if head == "G":
            return gmrn(*args)
    if name.startswith("D_"):
        return dihedral(int(name[2:]) // 2)
    if name.startswith("C_"):
        return cyclic(int(name[2:]))
    raise ValueError(f"unknown entry name {name!r}")


def spec_degrees(spec: str) -> tuple[int, ...]:
    """Degrees of a '+'-joined spec of entry names and comma lists."""
    out: list[int] = []
    for token in spec.split("+"):
        if all(c.isdigit() or c == "," for c in token):
            out.extend(int(x) for x in token.split(",") if x)
        else:
            out.extend(entry(token).degrees)
    return tuple(sorted(out))


def _fits(e: Entry, have: Counter) -> bool:
    return all(have[d] >= c for d, c in Counter(e.degrees).items())


def candidates(target: tuple[int, ...]) -> list[Entry]:
    """Every entry whose degrees form a sub-multiset of ``target``."""
    have = Counter(target)
    out = [_make(name, *row) for name, row in _FIXED.items()]
    n = 2
    while 2 * n in have:
        out.append(su(n))
        n += 1
    n = 1
    while 4 * n in have:
        out.append(sp(n))
        n += 1
    n = 3
    while 4 * (n - 1) in have:
        out.append(spin(n))
        n += 1
    for d in have:
        m = d // 2
        if m >= 3:
            out.append(cyclic(m))
            if m >= 5 and m != 6:
                out.append(dihedral(m))
            n = 2
            while 2 * m * (n - 1) in have:
                out.extend(gmrn(m, r, n) for r in range(1, m + 1) if m % r == 0)
                n += 1
    return [e for e in out if _fits(e, have)]


def prime_mask(target: tuple[int, ...], primes: tuple[int, ...]) -> int:
    """Bit i set iff the type decomposes into entries all occurring at
    primes[i]: OR over decompositions of AND over parts, memoized on the
    remaining sub-multiset and branching on its smallest degree."""
    full = (1 << len(primes)) - 1
    by_min: dict[int, list[tuple[Counter, int]]] = {}
    for e in candidates(target):
        bits = sum(1 << i for i, p in enumerate(primes) if e.occurs(p))
        by_min.setdefault(e.degrees[0], []).append((Counter(e.degrees), bits))
    memo: dict[tuple, int] = {}

    def solve(state: tuple[int, ...]) -> int:
        if not state:
            return full
        if state in memo:
            return memo[state]
        have = Counter(state)
        out = 0
        for need, bits in by_min.get(state[0], ()):
            if bits & ~out and all(have[d] >= c for d, c in need.items()):
                out |= bits & solve(tuple(sorted((have - need).elements())))
                if out == full:
                    break
        memo[state] = out
        return out

    return solve(tuple(sorted(target)))


def canonical_witness(target: tuple[int, ...], p: int) -> tuple[str, ...] | None:
    """Names of the first decomposition at p in canonical order (fewest
    parts, then the lexicographically smallest sorted name list)."""
    parts_at_p = [e for e in candidates(target) if e.occurs(p)]
    best: list[tuple] = []

    def extend(have: Counter, chosen: list[str], start_min: int, start: int) -> None:
        if not have:
            key = (len(chosen), tuple(sorted(chosen)))
            if not best or key < best[0]:
                best[:] = [key]
            return
        if best and len(chosen) >= best[0][0]:
            return
        d = min(have)
        for i, e in enumerate(parts_at_p):
            if e.degrees[0] != d or (d == start_min and i < start):
                continue
            need = Counter(e.degrees)
            if all(have[x] >= c for x, c in need.items()):
                extend(have - need, chosen + [e.name], d, i)

    extend(Counter(target), [], 0, 0)
    return best[0][1] if best else None
