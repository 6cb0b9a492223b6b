"""Candidate sweeps that start from the degrees present in the target.

Every row sweeps only the parameters whose degrees occur in the target; a
parameterless row is tried only when its largest degree is present.  The
candidate lists are checked against a copy of the sweeps they replaced,
which ran every parameter up to half the largest degree, and the sweep work
is counted, not timed.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from test_golden_cli import NAMED

from polycoh.catalog import Catalog, DegreeMultiset, EntryInstance, export_json, import_json
from polycoh.cli import parse_degrees
from polycoh.ntheory import divisors
from polycoh.verify import even_degree_multisets

# The earlier max-degree sweeps, by family ident: every parameter up to
# max_degree // 2 (G(m,r,n) also every n up to the degree count); the
# parameterless rows sweep the empty tuple.
OLD_SWEEPS = {
    "SU": lambda t: ((n,) for n in range(2, t.max_degree // 2 + 1)),
    "Sp": lambda t: ((n,) for n in range(1, t.max_degree // 4 + 1)),
    "Spin": lambda t: ((n,) for n in range(3, t.max_degree // 2 + 1)),
    "G(m,r,n)": lambda t: (
        (m, r, n)
        for m in range(3, t.max_degree // 2 + 1)
        for n in range(2, len(t) + 1)
        for r in divisors(m)
    ),
    "D": lambda t: ((m,) for m in range(5, t.max_degree // 2 + 1) if m != 6),
    "C": lambda t: ((m,) for m in range(3, t.max_degree // 2 + 1)),
}


def _fits(part: Counter, whole: Counter) -> bool:
    return all(whole[d] >= c for d, c in part.items())


def old_candidates(cat, target):
    target = DegreeMultiset.of(target)
    need = target.counter()
    out = []
    for fam in cat.families:
        for params in OLD_SWEEPS.get(fam.ident, lambda t: [()])(target):
            if _fits(Counter(fam.degrees(*params)), need):
                out.append(EntryInstance(fam.ident, params, fam.display(params)))
    for sp in cat.sporadics:
        if _fits(Counter(sp.degrees()), need):
            out.append(EntryInstance(sp.ident, (), sp.ident))
    out.sort(key=lambda inst: inst.sort_key)
    return out


def test_candidates_match_the_max_degree_sweeps(cat):
    named = NAMED + ("E_7+2000", "SU(12)+2000", "SU(8)+SU(8)")
    targets = [*even_degree_multisets(30, 4), *(parse_degrees(t, cat) for t in named)]
    for target in targets:
        assert cat.candidates(target) == old_candidates(cat, target), target


@pytest.mark.parametrize("degree", [16000, 2 * 10**16])
def test_one_large_degree_sweeps_two_parameter_tuples(cat, degree):
    # No sweep may do work that grows with the degree itself: trial division
    # up to the square root of 10^16 is 10^8 steps.
    have = DegreeMultiset.of((degree,)).counter()
    swept = [p for fam in cat.families if fam.scale for p in fam.sweep(have)]
    assert len(swept) <= 2
    assert cat.candidates((degree,)) == [cat.instance("C", (degree // 2,))]


def test_parameterless_rows_are_swept_from_their_largest_degree(cat):
    rows = [row for row in cat.families + cat.sporadics if not row.scale]
    assert len(rows) == 23
    targets = [Counter(t) for t in even_degree_multisets(30, 4)]
    targets += [Counter(row.degrees()) for row in rows]
    for row in rows:
        last = max(row.degrees())
        for have in targets:
            assert list(row.sweep(have)) == [()] * (last in have), (row.ident, have)


def test_swept_tuples_that_reach_the_fit_test_are_counted(cat):
    # Each tuple that passes its row's check builds one degree Counter for
    # the fit test.  Over this corpus that was 113,679 tuples while the 23
    # parameterless rows were tried on every type and the sweeps restated
    # part of each check.
    reached = 0

    def counted(row):
        def degrees(*params):
            nonlocal reached
            reached += 1
            return row.degrees(*params)

        return replace(row, degrees=degrees)

    counting = Catalog(tuple(map(counted, cat.families)), tuple(map(counted, cat.sporadics)))
    for target in even_degree_multisets(30, 4):
        assert counting.candidate_table(target) == cat.candidate_table(target), target
    assert reached <= 31_059


def test_an_imported_catalog_sweeps_its_own_rows(cat):
    again = import_json(export_json(cat))
    for target in even_degree_multisets(24, 3):
        assert again.candidate_table(target) == cat.candidate_table(target), target
    doc = json.loads(export_json(cat))
    row = {"name": "X", "degrees": [8, 12, 14], "primes": {"modulus": 1, "residues": [0]}}
    doc["sporadics"].append(row)
    grown = import_json(json.dumps(doc))
    assert "X" in [inst.name for inst in grown.candidates([8, 12, 14])]
    assert "X" not in [inst.name for inst in grown.candidates([8, 12])]
