"""Golden CLI outputs: stdout and exit code of every subcommand on a corpus.

The fixture ``golden_cli.json`` holds, for each command line of
:func:`golden_cases`, the exit code and the exact stdout of ``polycoh``.
It pins the rendering of entry names, verdicts, witnesses, failing primes
and classes, so refactors of the catalog and of the prime scans must keep
every byte.  To rewrite it after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json``.

A rewrite may move how prime sets are printed, never what is decided: the
fixture ``golden_verdicts.json`` holds, for each entry, the exit code and
the verdict, witnesses and failing prime that the entry's stdout reports,
as they stood before prime sets were canonicalized by their primes.
"""

import contextlib
import io
import json
from pathlib import Path

from polycoh.cli import main
from polycoh.verify import even_degree_multisets

FIXTURE = Path(__file__).with_name("golden_cli.json")
VERDICTS = Path(__file__).with_name("golden_verdicts.json")

# One ring per syntax of parse_ring.
RINGS = ("Z", "Q", "F_3", "Z[1/6]", "primes=2,5,7", "primes=mod:12:1,5,7,11")

NAMED = (
    "SU(5)+Sp(2)",
    "G(6, 3, 2)+4",
    "S1+S^1",
    "Spin(8)+D_10",
    "C_6+G_2+4",
    "G_24+4",
    "F_4",
)

# Failing primes and classes past the common cases: a class with no prime
# below the witness scan bound, large user moduli, primes excluded from a
# cofinite spec.
EXTRA_RINGS = (
    "Z[1/2]",
    "Z[1/3,1/5,1/7]",
    "primes=mod:5:1,4",
    "primes=mod:100003:1",
    "primes=mod:2305843009213693951:1",
)


def golden_cases():
    cases = [["catalog"], ["catalog", "--format", "json"]]
    targets = [",".join(map(str, ms)) for ms in even_degree_multisets(16, 3)]
    for degrees in targets + list(NAMED):
        for ring in RINGS:
            cases.append(["check", "--degrees", degrees, "--ring", ring, "--format", "json"])
        for cmd in (["primes"], ["decompose"], ["witness", "--prime", "3"]):
            cases.append(cmd + ["--degrees", degrees, "--format", "json"])
    # Costly (a degree of 2000 sweeps many candidates): two calls only.
    cases.append(["check", "--degrees", "E_7+2000", "--ring", "Z", "--format", "json"])
    cases.append(["decompose", "--degrees", "E_7+2000", "--format", "json"])
    for degrees in NAMED + ("4,12", "12,16"):
        for ring in EXTRA_RINGS:
            cases.append(["check", "--degrees", degrees, "--ring", ring, "--format", "json"])
        cases.append(["check", "--degrees", degrees, "--ring", "Z[1/6]"])
        cases.append(["decompose", "--degrees", degrees, "--prime", "5", "--format", "json"])
    return cases


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


# What an entry decides: JSON keys of check and witness, text lines of check.
VERDICT_KEYS = ("verdict", "witnesses", "failingPrime", "realizable", "witness")
VERDICT_LINES = ("verdict:", "witness at", "failing prime:")


def verdicts(case):
    """The exit code, verdict, witnesses and failing prime of one entry."""
    try:
        doc = json.loads(case["stdout"])
    except ValueError:
        lines = case["stdout"].splitlines()
        said = [line for line in lines if line.startswith(VERDICT_LINES)]
    else:
        said = {key: doc[key] for key in VERDICT_KEYS if key in doc}
    return {"argv": case["argv"], "code": case["code"], "said": said}


def test_cli_outputs_match_the_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    got = [run(argv) for argv in golden_cases()]
    assert [case["argv"] for case in got] == [case["argv"] for case in want]
    mismatched = [g["argv"] for g, w in zip(got, want) if g != w]
    assert mismatched == []


def test_golden_fixture_keeps_every_verdict_witness_and_failing_prime():
    want = json.loads(VERDICTS.read_text())
    got = [verdicts(case) for case in json.loads(FIXTURE.read_text())]
    assert len(got) == len(want)
    assert [g["argv"] for g, w in zip(got, want) if g != w] == []


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(run(argv)) for argv in golden_cases()) + "\n]")
