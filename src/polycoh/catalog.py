"""Catalog of realizable building-block types.

Every entry couples a multiset of even generator degrees with the residue
classes of primes at which a space with that polynomial cohomology type
exists: the simply connected simple compact Lie groups (plus the circle),
the infinite families of monomial complex reflection groups G(m, r, n)
together with the dihedral and cyclic degree patterns, and seventeen
sporadic complex reflection groups in the Shephard-Todd numbering.  Each
family and each sporadic group is one row of the same table.

A catalog answers three questions: what are the degrees of an entry, at
which primes does it occur, and which entry instances fit inside a given
target multiset.  The prime conditions written as lower bounds ("p >= 5")
are materialized eagerly as residue sets modulo a primorial, so downstream
code sees one uniform representation.
"""

from __future__ import annotations

import json
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, count, islice, product, takewhile
from typing import Callable, Iterable, Iterator

from .errors import (
    CatalogError,
    InvalidParametersError,
    InvalidTypeError,
    SizeLimitError,
)
from .ntheory import int_of_digits
from .residues import (
    ALL_PRIMES,
    ResidueSet,
    as_json_dict,
    contains_prime,
    exclude_prime,
    from_min_prime,
    make,
    normalize,
)

# The most generator degrees a type may have.
MAX_DEGREES = 10**5

# The most degree entries a candidate table may hold, summed over its rows:
# SU(1000) needs 1.21 million, SU(2000) 4.79 million.
MAX_TABLE_ENTRIES = 2 * 10**6


@dataclass(frozen=True)
class DegreeMultiset:
    """The type of a graded polynomial ring: its generator degrees.

    Stored sorted ascending so equality is structural.  Every degree must be
    a positive even integer; odd-degree generators only arise over rings
    where 2 = 0, which this engine does not model.  A type has at most
    MAX_DEGREES degrees.
    """

    degrees: tuple[int, ...]

    @classmethod
    def of(cls, degrees) -> "DegreeMultiset":
        if isinstance(degrees, DegreeMultiset):
            return degrees
        out = []
        for d in islice(degrees, MAX_DEGREES + 1):
            try:
                d = operator.index(d)
            except TypeError:
                raise InvalidTypeError(f"degree {d!r} is not an integer") from None
            if d <= 0 or d % 2:
                raise InvalidTypeError(
                    f"degree {d} is invalid: generator degrees must be positive "
                    "even integers (odd generators are out of scope)"
                )
            out.append(d)
        if len(out) > MAX_DEGREES:
            raise SizeLimitError(
                f"a type may have at most MAX_DEGREES = {MAX_DEGREES} degrees"
            )
        return cls(tuple(sorted(out)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __bool__(self) -> bool:
        return bool(self.degrees)

    @property
    def max_degree(self) -> int:
        return self.degrees[-1] if self.degrees else 0

    def counter(self) -> Counter:
        return Counter(self.degrees)

    def union(self, other: "DegreeMultiset") -> "DegreeMultiset":
        return DegreeMultiset.of(chain(self, other))


@dataclass(frozen=True)
class EntryInstance:
    """One concrete catalog entry: a family identifier plus parameters."""

    family: str
    params: tuple[int, ...]
    name: str

    @property
    def sort_key(self) -> tuple:
        return (self.name, self.params)


@dataclass(frozen=True)
class FamilyTemplate:
    """One catalog family, defined by this row alone.

    ``pattern`` is the display name with one ``{}`` per parameter, each
    shown times its ``scale`` (Spin(2n), D_2m); :meth:`Catalog.lookup`
    matches the regular expression derived from it.  ``degrees``,
    ``primes`` and ``check`` take the parameters as arguments; ``sweep``
    takes the target's degree counts and, starting from its distinct
    degrees, yields every parameter tuple whose degrees all occur in the
    target, and possibly some that fail ``check`` or do not fit
    (:meth:`Catalog.candidate_table` drops those): ``check`` alone states
    the row's constraints.  The three text fields document the row and
    travel with the JSON form.  A parameterless row, built by :func:`_fixed`,
    has its degree list as its formula and a sweep that yields ``()`` only
    when its largest degree is in the target.
    """

    ident: str
    pattern: str
    degrees: Callable[..., Iterable[int]]
    primes: Callable[..., ResidueSet]
    prime_condition: str
    degree_formula: str = ""
    constraints: str = ""
    check: Callable[..., bool] = lambda: True
    sweep: Callable[[Counter], Iterable[tuple[int, ...]]] | None = None
    scale: tuple[int, ...] = ()
    name_re: re.Pattern = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Derived fields: parameters shown unscaled unless told otherwise,
        # the pattern as a regular expression with one number per parameter,
        # and a parameterless row's formula (its degree list) and sweep.
        arity = self.pattern.count("{}")
        regex = re.escape(self.pattern).replace(r"\{\}", r"\s*(\d+)\s*")
        object.__setattr__(self, "scale", self.scale or (1,) * arity)
        object.__setattr__(self, "name_re", re.compile(regex))
        if self.sweep is None:
            last = max(self.degrees())
            formula = ", ".join(map(str, self.degrees()))
            object.__setattr__(self, "degree_formula", formula)
            object.__setattr__(self, "sweep", lambda have: ((),) if last in have else ())

    def display(self, params: tuple[int, ...]) -> str:
        return self.pattern.format(*(p * s for p, s in zip(params, self.scale)))


_P_GE_3, _P_GE_5, _P_GE_7 = (from_min_prime(k) for k in (3, 5, 7))


@lru_cache(maxsize=4096)
def _classes(m: int, residues: tuple[int, ...]) -> ResidueSet:
    """The canonical set of the given classes mod ``m``, built once per
    key: C_m and every G(m, r, n) share one object."""
    return normalize(make(m, residues))


def _fixed(
    name: str, degrees: Iterable[int], primes: ResidueSet, condition: str = ""
) -> FamilyTemplate:
    """The parameterless row of one group: its degrees, and its prime set,
    whose canonical form is the row's prime condition unless one is given."""
    degrees = tuple(sorted(degrees))
    if not condition:
        shown = as_json_dict(primes)
        condition = f"p in {shown['residues']} mod {shown['modulus']}"
    return FamilyTemplate(name, name, lambda: degrees, lambda: primes, condition)


# The families, in catalog order.
_FAMILIES = (
    _fixed("S^1", (2,), ALL_PRIMES, "all p"),
    FamilyTemplate(
        ident="SU",
        pattern="SU({})",
        degrees=lambda n: range(4, 2 * n + 1, 2),
        primes=lambda n: ALL_PRIMES,
        prime_condition="all p",
        degree_formula="4, 6, ..., 2n",
        constraints="n >= 2",
        check=lambda n: n >= 2,
        sweep=lambda have: product(takewhile(lambda n: 2 * n in have, count(2))),
    ),
    FamilyTemplate(
        ident="Sp",
        pattern="Sp({})",
        degrees=lambda n: range(4, 4 * n + 1, 4),
        primes=lambda n: ALL_PRIMES,
        prime_condition="all p",
        degree_formula="4, 8, ..., 4n",
        constraints="n >= 1",
        check=lambda n: n >= 1,
        sweep=lambda have: product(takewhile(lambda n: 4 * n in have, count(1))),
    ),
    FamilyTemplate(
        ident="Spin",
        pattern="Spin({})",
        scale=(2,),
        degrees=lambda n: chain(range(4, 4 * n, 4), (2 * n,)),
        primes=lambda n: _P_GE_3,
        prime_condition="p >= 3",
        degree_formula="4, 8, ..., 4(n-1), 2n",
        constraints="n >= 3",
        check=lambda n: n >= 3,
        # The instance has n degrees, so n is at most the target's size.
        sweep=lambda have: ((d // 2,) for d in have if d <= 2 * have.total()),
    ),
    _fixed("G_2", (4, 12), _P_GE_3, "p >= 3"),
    _fixed("F_4", (4, 12, 16, 24), _P_GE_5, "p >= 5"),
    _fixed("E_6", (4, 10, 12, 16, 18, 24), _P_GE_5, "p >= 5"),
    _fixed("E_7", (4, 12, 16, 20, 24, 28, 36), _P_GE_5, "p >= 5"),
    _fixed("E_8", (4, 16, 24, 28, 36, 40, 48, 60), _P_GE_7, "p >= 7"),
    FamilyTemplate(
        ident="G(m,r,n)",
        pattern="G({},{},{})",
        degrees=lambda m, r, n: chain(
            range(2 * m, 2 * m * n, 2 * m), (2 * m * n // r,)
        ),
        primes=lambda m, r, n: _classes(m, (1,)),
        prime_condition="p == 1 (mod m)",
        degree_formula="2m, 4m, ..., 2(n-1)m, 2mn/r",
        constraints="n >= 2, m >= 3, r | m",
        check=lambda m, r, n: n >= 2 and m >= 3 and r >= 1 and m % r == 0,
        # 2m, 4m, ..., 2(n-1)m are always among the n degrees, and the
        # last degree 2mn/r fixes r.
        sweep=lambda have: (
            (m, 2 * m * n // last, n)
            for m in (d // 2 for d in have)
            for n in takewhile(
                lambda n: n <= have.total() and 2 * m * (n - 1) in have, count(2)
            )
            for last in have
            if 2 * m * n % last == 0
        ),
    ),
    FamilyTemplate(
        ident="D",
        pattern="D_{}",
        scale=(2,),
        degrees=lambda m: (4, 2 * m),
        primes=lambda m: _classes(m, (1, m - 1)),
        prime_condition="p == +-1 (mod m)",
        degree_formula="4, 2m",
        constraints="m >= 5, m != 6",
        check=lambda m: m >= 5 and m != 6,
        sweep=lambda have: ((d // 2,) for d in have if 4 in have),
    ),
    FamilyTemplate(
        ident="C",
        pattern="C_{}",
        degrees=lambda m: (2 * m,),
        primes=lambda m: _classes(m, (1,)),
        prime_condition="p == 1 (mod m)",
        degree_formula="2m",
        constraints="m >= 3",
        check=lambda m: m >= 3,
        sweep=lambda have: ((d // 2,) for d in have),
    ),
)
_FAMILY_BY_IDENT = {f.ident: f for f in _FAMILIES}

# name, degrees, prime set
_SPORADIC_ROWS = (
    ("G_8", (16, 24), _classes(4, (1,))),
    ("G_9", (16, 48), _classes(8, (1,))),
    ("G_12", (12, 16), _classes(8, (1, 3))),
    ("G_14", (12, 48), _classes(24, (1, 19))),
    ("G_16", (40, 60), _classes(5, (1,))),
    ("G_17", (40, 120), _classes(20, (1,))),
    ("G_20", (24, 60), _classes(15, (1, 4))),
    ("G_21", (24, 120), _classes(60, (1, 49))),
    ("G_22", (24, 40), _classes(20, (1, 9))),
    ("G_23", (4, 12, 20), _classes(5, (1, 4))),
    ("G_24", (8, 12, 28), exclude_prime(_classes(7, (1, 2, 4)), 2)),
    ("G_29", (8, 16, 24, 40), _classes(4, (1,))),
    ("G_30", (4, 24, 40, 60), _classes(5, (1, 4))),
    ("G_31", (16, 24, 40, 48), _classes(4, (1,))),
    ("G_32", (24, 36, 48, 60), _classes(3, (1,))),
    ("G_33", (8, 12, 20, 24, 36), _classes(3, (1,))),
    ("G_34", (12, 24, 36, 48, 60, 84), _classes(3, (1,))),
)


_SPORADICS = tuple(_fixed(*row) for row in _SPORADIC_ROWS)


@dataclass(frozen=True)
class Catalog:
    """An immutable queryable collection of rows, in two sections: the
    families and the sporadic groups.  Two catalogs are equal when they
    export the same document."""

    families: tuple[FamilyTemplate, ...]
    sporadics: tuple[FamilyTemplate, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        return self._document == other._document

    def __hash__(self) -> int:
        return hash(self._document)

    @cached_property
    def _document(self) -> str:
        return export_json(self)

    @cached_property
    def _rows(self) -> dict[str, FamilyTemplate]:
        return {row.ident: row for row in self.families + self.sporadics}

    def _row(self, name: str) -> FamilyTemplate:
        """The row called ``name``."""
        row = self._rows.get(name)
        if row is None:
            raise InvalidParametersError(f"{name!r} is not in this catalog")
        return row

    def instance(self, family: str, params: Iterable[int] = ()) -> EntryInstance:
        """Validated entry instance for a row identifier and parameters."""
        params = tuple(params)
        row = self._row(family)
        if len(params) != len(row.scale) or not row.check(*params):
            raise InvalidParametersError(
                f"parameters {params} violate the constraints of {family}"
                + (f" ({row.constraints})" if row.constraints else "")
            )
        return EntryInstance(family, params, row.display(params))

    def lookup(self, name: str) -> EntryInstance:
        """Parse a display name such as 'SU(5)', 'G(6,3,2)' or 'G_24'."""
        return self.instance(*parse_entry_name(name, self))

    def degrees_of(self, inst: EntryInstance) -> DegreeMultiset:
        return DegreeMultiset.of(self._row(inst.family).degrees(*inst.params))

    def prime_set_of(self, inst: EntryInstance) -> ResidueSet:
        return self._row(inst.family).primes(*inst.params)

    def candidate_table(self, target) -> list[tuple[EntryInstance, Counter]]:
        """Every instance whose degrees form a sub-multiset of ``target``, as
        (instance, degree Counter) rows in instance order.

        Finite and complete: every degree of a fitting instance occurs in the
        target, so the sweeps, which start from the target's distinct degrees,
        yield a superset of the fitting instances, and the row's ``check`` and
        the fit test, which builds the Counter, keep exactly those.  A table
        of more than MAX_TABLE_ENTRIES degree entries is refused.
        """
        need = DegreeMultiset.of(target).counter()
        out = []
        entries = 0
        for row in self.families + self.sporadics:
            for params in (p for p in row.sweep(need) if row.check(*p)):
                degrees = Counter(row.degrees(*params))
                if all(need[d] >= c for d, c in degrees.items()):
                    entries += len(degrees)
                    if entries > MAX_TABLE_ENTRIES:
                        raise SizeLimitError(
                            "the candidate table passed MAX_TABLE_ENTRIES = "
                            f"{MAX_TABLE_ENTRIES} degree entries"
                        )
                    inst = EntryInstance(row.ident, params, row.display(params))
                    out.append((inst, degrees))
        out.sort(key=lambda c: c[0].sort_key)
        return out

    def candidates(self, target) -> list[EntryInstance]:
        """The instances of :meth:`candidate_table`."""
        return [inst for inst, _ in self.candidate_table(target)]

    def to_json_dict(self) -> dict:
        """The JSON document: sporadics explicitly, families symbolically."""
        return {
            "sporadics": [
                {
                    "name": sp.ident,
                    "degrees": list(sp.degrees()),
                    "primes": as_json_dict(sp.primes()),
                }
                for sp in self.sporadics
            ],
            "families": [
                {
                    "name": f.ident,
                    "constraints": f.constraints,
                    "degreeFormula": f.degree_formula,
                    "primeCondition": f.prime_condition,
                }
                for f in self.families
            ],
        }

    def occurs_at(self, inst: EntryInstance, p: int) -> bool:
        return contains_prime(self.prime_set_of(inst), p)


def parse_entry_name(name: str, cat: Catalog | None = None) -> tuple[str, tuple[int, ...]]:
    """Split a display name into (row identifier, parameters).  S1 is an
    alias of S^1; otherwise the display patterns of the rows of ``cat``,
    the built-in catalog by default, are matched in turn."""
    text = name.strip()
    if text == "S1":
        return ("S^1", ())
    for row in (cat or builtin())._rows.values():
        match = row.name_re.fullmatch(text)
        if match:
            shown = [int_of_digits(g, InvalidParametersError) for g in match.groups()]
            if any(v % s for v, s in zip(shown, row.scale)):
                raise InvalidParametersError(
                    f"{name!r}: {row.pattern} shows each parameter times {row.scale}"
                )
            return (row.ident, tuple(v // s for v, s in zip(shown, row.scale)))
    raise InvalidParametersError(f"unrecognized catalog entry name {name!r}")


@lru_cache(maxsize=1)
def builtin() -> Catalog:
    """The full built-in catalog."""
    return Catalog(families=_FAMILIES, sporadics=_SPORADICS)


def export_json(cat: Catalog) -> str:
    """Serialize a catalog: its :meth:`Catalog.to_json_dict` document."""
    return json.dumps(cat.to_json_dict(), indent=2, sort_keys=True)


def import_json(text: str) -> Catalog:
    """Inverse of :func:`export_json`.

    Families are symbolic references resolved against the built-in
    definitions; their documentation strings must match exactly, so a
    round trip is the identity.  Each sporadic's name must be read back by
    :meth:`Catalog.lookup` as that row.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed catalog JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CatalogError("malformed catalog JSON: expected an object")

    families = []
    for row in doc.get("families", ()):
        name = row.get("name")
        fam = _FAMILY_BY_IDENT.get(name)
        if fam is None:
            raise CatalogError(f"family {name!r}: unknown family identifier")
        if fam in families:
            raise CatalogError(f"family {name!r}: listed twice")
        expected = {
            "constraints": fam.constraints,
            "degreeFormula": fam.degree_formula,
            "primeCondition": fam.prime_condition,
        }
        for key, want in expected.items():
            if row.get(key) != want:
                raise CatalogError(
                    f"family {name!r}: field {key!r} does not match the "
                    f"built-in definition ({row.get(key)!r} != {want!r})"
                )
        families.append(fam)

    sporadics = []
    for row in doc.get("sporadics", ()):
        name = row.get("name")
        if not isinstance(name, str) or not name:
            raise CatalogError(f"sporadic entry with missing name: {row!r}")
        if "{" in name or "}" in name:
            raise CatalogError(f"sporadic {name!r}: a name may not contain braces")
        if name in _FAMILY_BY_IDENT or any(sp.ident == name for sp in sporadics):
            raise CatalogError(f"sporadic {name!r}: name taken by a family or another row")
        degrees = row.get("degrees")
        if not isinstance(degrees, list) or not degrees:
            raise CatalogError(f"sporadic {name!r}: missing degree list")
        for d in degrees:
            if not isinstance(d, int) or d <= 0 or d % 2:
                raise CatalogError(
                    f"sporadic {name!r}: degree {d!r} is not a positive even integer"
                )
        primes = row.get("primes")
        if (
            not isinstance(primes, dict)
            or not isinstance(primes.get("modulus"), int)
            or not isinstance(primes.get("residues"), list)
        ):
            raise CatalogError(f"sporadic {name!r}: malformed prime set")
        mod = primes["modulus"]
        res = primes["residues"]
        if mod < 1 or any(not isinstance(r, int) or not 0 <= r < mod for r in res):
            raise CatalogError(f"sporadic {name!r}: malformed prime set")
        sporadics.append(_fixed(name, degrees, normalize(make(mod, res))))

    cat = Catalog(families=tuple(families), sporadics=tuple(sporadics))
    for sp in cat.sporadics:
        try:
            found = cat.lookup(sp.ident).family
        except InvalidParametersError:
            found = None
        if found != sp.ident:
            raise CatalogError(f"sporadic {sp.ident!r}: lookup of its name misses the row")
    return cat
