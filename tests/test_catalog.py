import itertools
import json
import random
import re
import sys
from collections import Counter

import pytest

import polycoh.catalog as catalog_mod
from polycoh.catalog import (
    MAX_DEGREES,
    DegreeMultiset,
    export_json,
    import_json,
    parse_entry_name,
)
from polycoh.errors import (
    CatalogError,
    InvalidParametersError,
    InvalidTypeError,
    SizeLimitError,
)
from polycoh.ntheory import divisors, primes_below
from polycoh.residues import as_json_dict, contains_prime, make, normalize
from polycoh.verify import even_degree_multisets

PRIMES_10K = primes_below(10001)

# The fixed rows: name -> (degrees, canonical prime classes)
LIE_ROWS = {
    "S^1": ((2,), (1, [0])),
    "G_2": ((4, 12), (2, [1])),
    "F_4": ((4, 12, 16, 24), (6, [1, 5])),
    "E_6": ((4, 10, 12, 16, 18, 24), (6, [1, 5])),
    "E_7": ((4, 12, 16, 20, 24, 28, 36), (6, [1, 5])),
    "E_8": ((4, 16, 24, 28, 36, 40, 48, 60), (30, [1, 7, 11, 13, 17, 19, 23, 29])),
}

SPORADIC_ROWS = {
    "G_8": ((16, 24), (4, [1])),
    "G_9": ((16, 48), (8, [1])),
    "G_12": ((12, 16), (8, [1, 3])),
    "G_14": ((12, 48), (24, [1, 19])),
    "G_16": ((40, 60), (5, [1])),
    "G_17": ((40, 120), (20, [1])),
    "G_20": ((24, 60), (15, [1, 4])),
    "G_21": ((24, 120), (60, [1, 49])),
    "G_22": ((24, 40), (20, [1, 9])),
    "G_23": ((4, 12, 20), (5, [1, 4])),
    "G_24": ((8, 12, 28), (14, [1, 9, 11])),
    "G_29": ((8, 16, 24, 40), (4, [1])),
    "G_30": ((4, 24, 40, 60), (5, [1, 4])),
    "G_31": ((16, 24, 40, 48), (4, [1])),
    "G_32": ((24, 36, 48, 60), (3, [1])),
    "G_33": ((8, 12, 20, 24, 36), (3, [1])),
    "G_34": ((12, 24, 36, 48, 60, 84), (3, [1])),
}


# ---------------------------------------------------------------- degree multisets


def test_degree_multiset_sorts_and_validates():
    assert DegreeMultiset.of([12, 4, 4]).degrees == (4, 4, 12)
    assert DegreeMultiset.of(()).degrees == ()
    for bad in ([7], [0], [-2], [2.5]):
        with pytest.raises(InvalidTypeError):
            DegreeMultiset.of(bad)


def test_degree_multiset_union():
    a = DegreeMultiset.of([4, 8])
    b = DegreeMultiset.of([2, 8])
    assert a.union(b).degrees == (2, 4, 8, 8)


def test_degree_multiset_refuses_more_than_the_limit():
    full = DegreeMultiset.of([2] * MAX_DEGREES)
    assert len(full) == MAX_DEGREES
    with pytest.raises(SizeLimitError, match=f"MAX_DEGREES = {MAX_DEGREES}"):
        full.union(DegreeMultiset.of([4]))
    # An endless iterable is refused after the limit plus one degree.
    pulled = itertools.count()
    with pytest.raises(SizeLimitError, match="MAX_DEGREES"):
        DegreeMultiset.of(2 for _ in pulled)
    assert next(pulled) == MAX_DEGREES + 1


# ---------------------------------------------------------------- fixed rows


def test_lie_rows(cat):
    for name, (degrees, (mod, res)) in LIE_ROWS.items():
        inst = cat.lookup(name)
        assert cat.degrees_of(inst).degrees == degrees, name
        assert as_json_dict(cat.prime_set_of(inst)) == {
            "modulus": mod,
            "residues": res,
        }, name


def test_sporadic_rows(cat):
    assert len(cat.sporadics) == 17
    for name, (degrees, (mod, res)) in SPORADIC_ROWS.items():
        inst = cat.lookup(name)
        assert cat.degrees_of(inst).degrees == degrees, name
        assert as_json_dict(cat.prime_set_of(inst)) == {
            "modulus": mod,
            "residues": res,
        }, name


def test_g24_excludes_two(cat):
    ps = cat.prime_set_of(cat.lookup("G_24"))
    for p in PRIMES_10K[:200]:
        assert contains_prime(ps, p) == (p % 7 in (1, 2, 4) and p != 2)


# ---------------------------------------------------------------- parametric rows


def test_family_degree_formulas(cat):
    assert cat.degrees_of(cat.lookup("SU(5)")).degrees == (4, 6, 8, 10)
    assert cat.degrees_of(cat.lookup("SU(2)")).degrees == (4,)
    assert cat.degrees_of(cat.lookup("Sp(1)")).degrees == (4,)
    assert cat.degrees_of(cat.lookup("Sp(3)")).degrees == (4, 8, 12)
    assert cat.degrees_of(cat.lookup("Spin(6)")).degrees == (4, 6, 8)
    assert cat.degrees_of(cat.lookup("Spin(8)")).degrees == (4, 8, 8, 12)
    assert cat.degrees_of(cat.lookup("G(6,3,2)")).degrees == (8, 12)
    assert cat.degrees_of(cat.lookup("G(6,6,2)")).degrees == (4, 12)
    assert cat.degrees_of(cat.lookup("G(3,1,2)")).degrees == (6, 12)
    assert cat.degrees_of(cat.lookup("D_10")).degrees == (4, 10)
    assert cat.degrees_of(cat.lookup("C_6")).degrees == (12,)


def test_family_prime_conditions(cat):
    # p = 1 mod 6, and 4 mod 6 holds no prime
    assert as_json_dict(cat.prime_set_of(cat.lookup("C_6"))) == {
        "modulus": 3,
        "residues": [1],
    }
    assert as_json_dict(cat.prime_set_of(cat.lookup("D_10"))) == {
        "modulus": 5,
        "residues": [1, 4],
    }
    assert as_json_dict(cat.prime_set_of(cat.lookup("SU(9)"))) == {
        "modulus": 1,
        "residues": [0],
    }
    assert as_json_dict(cat.prime_set_of(cat.lookup("Spin(12)"))) == {
        "modulus": 2,
        "residues": [1],
    }


def test_parameter_constraints_enforced(cat):
    for name in ("SU(1)", "Sp(0)", "Spin(4)", "D_12", "C_2", "G(4,3,2)", "G(2,1,2)"):
        with pytest.raises(InvalidParametersError):
            cat.lookup(name)
    with pytest.raises(InvalidParametersError):
        cat.lookup("Spin(7)")  # odd spin ranks are not catalogued
    with pytest.raises(InvalidParametersError):
        cat.lookup("X_9")


def test_parse_entry_name_forms():
    assert parse_entry_name("S^1") == ("S^1", ())
    assert parse_entry_name("S1") == ("S^1", ())
    assert parse_entry_name("SU(4)") == ("SU", (4,))
    assert parse_entry_name("Spin(10)") == ("Spin", (5,))
    assert parse_entry_name("G(6,3,2)") == ("G(m,r,n)", (6, 3, 2))
    assert parse_entry_name("D_14") == ("D", (7,))
    assert parse_entry_name("C_12") == ("C", (12,))
    assert parse_entry_name("G_2") == ("G_2", ())
    assert parse_entry_name("G_34") == ("G_34", ())


def test_parse_entry_name_refuses_numbers_past_the_digit_limit():
    # Python reads at most sys.get_int_max_str_digits() digits as an int.
    ones = "1" * 5000
    limit = f"{sys.get_int_max_str_digits()}-digit limit"
    for name in (f"SU({ones})", f"G(6, {ones}, 2)", f"D_{ones}0"):
        with pytest.raises(InvalidParametersError, match=limit):
            parse_entry_name(name)


def test_entry_names_round_trip(cat):
    # every instance candidates emits over the verify corpus (and the types
    # of the larger exceptional groups), by its own name
    big = [cat.degrees_of(cat.instance(name)) for name in ("E_6", "E_7", "E_8")]
    seen = set()
    for target in [*even_degree_multisets(24, 4), *big]:
        for inst in cat.candidates(target):
            if inst not in seen:
                seen.add(inst)
                assert cat.lookup(inst.name) == inst, inst
    assert {inst.family for inst in seen} >= {f.ident for f in cat.families}
    for sp in cat.sporadics:
        assert cat.lookup(sp.ident) == cat.instance(sp.ident)
    # spaced and alias forms
    assert cat.lookup(" SU(4) ") == cat.instance("SU", (4,))
    assert cat.lookup("G(6, 3, 2)") == cat.instance("G(m,r,n)", (6, 3, 2))
    assert cat.lookup("S1") == cat.lookup("S^1")
    for name in ("D_13", "SU(abc)", "G(6,3)", "Spin(-8)", "E_9", ""):
        with pytest.raises(InvalidParametersError):
            cat.lookup(name)


def test_family_prime_sets_are_built_once_per_modulus(cat):
    c12 = cat.prime_set_of(cat.instance("C", (12,)))
    assert cat.prime_set_of(cat.instance("G(m,r,n)", (12, 4, 3))) is c12
    assert cat.prime_set_of(cat.instance("G(m,r,n)", (12, 2, 3))) is c12
    d10 = cat.instance("D", (10,))
    assert cat.prime_set_of(d10) is cat.prime_set_of(d10)


def test_dihedral_agrees_with_gmm2(cat):
    # two rows, one degree multiset
    for m in range(5, 31):
        if m == 6:
            continue
        d = cat.degrees_of(cat.instance("D", (m,)))
        g = cat.degrees_of(cat.instance("G(m,r,n)", (m, m, 2)))
        assert d.degrees == g.degrees == (4, 2 * m)


def test_builtin_instances_have_valid_data(cat):
    sample = [cat.lookup(n) for n in LIE_ROWS] + [cat.lookup(n) for n in SPORADIC_ROWS]
    sample += [cat.instance("SU", (n,)) for n in range(2, 13)]
    sample += [cat.instance("Sp", (n,)) for n in range(1, 7)]
    sample += [cat.instance("Spin", (n,)) for n in range(3, 13)]
    sample += [
        cat.instance("G(m,r,n)", (m, r, n))
        for m in range(3, 13)
        for r in divisors(m)
        for n in (2, 3)
    ]
    sample += [cat.instance("D", (m,)) for m in range(5, 31) if m != 6]
    sample += [cat.instance("C", (m,)) for m in range(3, 31)]
    for inst in sample:
        degs = cat.degrees_of(inst)
        assert all(d >= 2 and d % 2 == 0 for d in degs), inst.name
        ps = cat.prime_set_of(inst)
        assert any(contains_prime(ps, p) for p in PRIMES_10K), inst.name


# ---------------------------------------------------------------- candidates


def test_candidates_frozen_examples(cat):
    assert [i.name for i in cat.candidates([2])] == ["S^1"]
    assert cat.candidates([]) == []
    got = {i.name for i in cat.candidates([4, 12, 20])}
    assert got == {
        "SU(2)",
        "Sp(1)",
        "G_2",
        "C_6",
        "C_10",
        "G(6,6,2)",
        "G(10,10,2)",
        "D_20",
        "G_23",
    }


def brute_force_candidates(cat, target):
    """Oracle: enumerate instances up to deliberately generous bounds."""
    target = DegreeMultiset.of(target)
    need = Counter(target.degrees)

    def fits(degs):
        c = Counter(degs)
        return all(need[d] >= k for d, k in c.items())

    found = set()
    for n in range(2, 41):
        if fits(tuple(range(4, 2 * n + 1, 2))):
            found.add(("SU", (n,)))
    for n in range(1, 41):
        if fits(tuple(range(4, 4 * n + 1, 4))):
            found.add(("Sp", (n,)))
    for n in range(3, 41):
        if fits(tuple(sorted([4 * i for i in range(1, n)] + [2 * n]))):
            found.add(("Spin", (n,)))
    fixed = {
        "S^1": (2,),
        "G_2": (4, 12),
        "F_4": (4, 12, 16, 24),
        "E_6": (4, 10, 12, 16, 18, 24),
        "E_7": (4, 12, 16, 20, 24, 28, 36),
        "E_8": (4, 16, 24, 28, 36, 40, 48, 60),
    }
    for name, degs in fixed.items():
        if fits(degs):
            found.add((name, ()))
    for m in range(3, 81):
        for r in divisors(m):
            for n in range(2, 9):
                degs = sorted([2 * m * i for i in range(1, n)] + [2 * m * n // r])
                if fits(tuple(degs)):
                    found.add(("G(m,r,n)", (m, r, n)))
    for m in range(5, 81):
        if m != 6 and fits((4, 2 * m)):
            found.add(("D", (m,)))
    for m in range(3, 81):
        if fits((2 * m,)):
            found.add(("C", (m,)))
    for name, (degs, _) in SPORADIC_ROWS.items():
        if fits(degs):
            found.add((name, ()))
    return found


def test_candidates_complete_against_brute_force(cat):
    rng = random.Random(8080)
    targets = [
        [4, 12],
        [4, 6],
        [8, 12],
        [2, 2, 4],
        [4, 8, 8, 12],
        [40, 24],
        [4, 60],
    ]
    for _ in range(40):
        size = rng.randint(0, 4)
        targets.append([rng.choice(range(2, 41, 2)) for _ in range(size)])
    for target in targets:
        got = {(i.family, i.params) for i in cat.candidates(target)}
        expected = brute_force_candidates(cat, target)
        assert got == expected, target


def test_candidates_rejects_invalid_targets(cat):
    with pytest.raises(InvalidTypeError):
        cat.candidates([3])


def test_candidate_table_is_bounded(cat, monkeypatch):
    # Sp(3) fits 10 rows with 17 degree entries in all
    target = [4, 8, 12]
    assert sum(len(need) for _, need in cat.candidate_table(target)) == 17
    monkeypatch.setattr(catalog_mod, "MAX_TABLE_ENTRIES", 17)
    assert len(cat.candidate_table(target)) == 10
    monkeypatch.setattr(catalog_mod, "MAX_TABLE_ENTRIES", 16)
    with pytest.raises(SizeLimitError, match="MAX_TABLE_ENTRIES = 16"):
        cat.candidate_table(target)


# ---------------------------------------------------------------- JSON round trip


def test_export_import_round_trip(cat):
    text = export_json(cat)
    again = import_json(text)
    assert again == cat
    assert export_json(again) == text
    doc = json.loads(text)
    doc["families"] = []
    assert import_json(json.dumps(doc)) != cat


def test_import_sporadic_only_catalog(cat):
    doc = json.loads(export_json(cat))
    doc["families"] = []
    small = import_json(json.dumps(doc))
    assert [i.name for i in small.candidates([16, 24])] == ["G_8"]


def test_lookup_names_an_imported_catalogs_own_rows(cat):
    renamed = import_json(export_json(cat).replace('"G_8"', '"X_8"'))
    inst = renamed.lookup("X_8")
    assert inst == renamed.instance("X_8")
    assert renamed.degrees_of(inst).degrees == (16, 24)
    assert renamed.occurs_at(inst, 5) and not renamed.occurs_at(inst, 7)
    assert renamed.lookup("SU(3)") == cat.lookup("SU(3)")
    with pytest.raises(InvalidParametersError, match="unrecognized"):
        renamed.lookup("G_8")
    with pytest.raises(InvalidParametersError, match="unrecognized"):
        cat.lookup("X_8")
    assert parse_entry_name("X_8", renamed) == ("X_8", ())


def test_import_rejects_odd_degree(cat):
    doc = json.loads(export_json(cat))
    doc["sporadics"][0]["degrees"] = [7]
    with pytest.raises(CatalogError, match="G_8"):
        import_json(json.dumps(doc))


def test_import_rejects_unknown_family(cat):
    doc = json.loads(export_json(cat))
    doc["families"][0]["name"] = "H_4"
    with pytest.raises(CatalogError, match="H_4"):
        import_json(json.dumps(doc))


def test_import_rejects_mismatched_family_text(cat):
    doc = json.loads(export_json(cat))
    for row in doc["families"]:
        if row["name"] == "C":
            row["primeCondition"] = "p == 2 (mod m)"
    with pytest.raises(CatalogError, match="'C'"):
        import_json(json.dumps(doc))


def test_import_rejects_malformed_json():
    with pytest.raises(CatalogError):
        import_json("{not json")
    with pytest.raises(CatalogError):
        import_json('{"sporadics": [{"name": "G_99", "degrees": [4], "primes": {}}]}')


def test_import_rejects_names_with_braces(cat):
    doc = json.loads(export_json(cat))
    for name in ("X{}", "G_{8", "G}"):
        doc["sporadics"][0]["name"] = name
        with pytest.raises(CatalogError, match=re.escape(repr(name))):
            import_json(json.dumps(doc))


def test_import_rejects_a_sporadic_named_like_a_family(cat):
    # Such a row would shadow the family: with the first sporadic renamed
    # SU, congruence_classes(cat, [4, 6]) raised TypeError.
    # The family need not be in the document to be refused.
    doc = json.loads(export_json(cat))
    for families in (doc["families"], []):
        doc["families"] = families
        for name in ("SU", "S^1", "G(m,r,n)"):
            doc["sporadics"][0]["name"] = name
            with pytest.raises(CatalogError, match=re.escape(repr(name))):
                import_json(json.dumps(doc))


@pytest.mark.parametrize("name", ["SU(3)", "S1", "Spin(7)"])
def test_import_rejects_a_sporadic_its_name_does_not_reach(cat, name):
    # lookup reads SU(3) as the SU family's instance and S1 as the alias of
    # S^1, and refuses Spin(7), as Spin shows 2n: none reaches the row.
    doc = json.loads(export_json(cat))
    row = {"name": name, "degrees": [4, 8], "primes": {"modulus": 5, "residues": [1]}}
    doc["sporadics"].append(row)
    with pytest.raises(CatalogError, match=re.escape(repr(name))):
        import_json(json.dumps(doc))


def test_import_rejects_two_sporadics_of_one_name(cat):
    doc = json.loads(export_json(cat))
    name = doc["sporadics"][0]["name"]
    doc["sporadics"][5]["name"] = name
    with pytest.raises(CatalogError, match=repr(name)):
        import_json(json.dumps(doc))


def test_import_rejects_a_family_listed_twice(cat):
    # With SU listed twice, candidates([4, 6]) listed SU(2) and SU(3) twice.
    doc = json.loads(export_json(cat))
    doc["families"] += [row for row in doc["families"] if row["name"] == "SU"]
    with pytest.raises(CatalogError, match="'SU'"):
        import_json(json.dumps(doc))


def test_import_normalizes_prime_sets(cat):
    doc = {
        "families": [],
        "sporadics": [
            {
                "name": "X_1",
                "degrees": [8],
                "primes": {"modulus": 8, "residues": [1, 3, 5, 7]},
            }
        ],
    }
    small = import_json(json.dumps(doc))
    assert small.sporadics[0].primes() == normalize(make(2, [1]))
