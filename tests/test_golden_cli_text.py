"""Golden CLI text outputs: the text form of every subcommand on a corpus.

The fixture ``golden_cli_text.json`` holds, for each command line of
:func:`text_cases`, the exit code and the exact stdout of ``polycoh`` in
its default text format; ``golden_cli.json`` pins the JSON form.  The
timings that ``molien-verify`` prints are masked.  To rewrite the fixture
after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_cli_text.py > tests/golden_cli_text.json``.
"""

import json
import re
from pathlib import Path

from polycoh.verify import even_degree_multisets
from test_golden_cli import EXTRA_RINGS, NAMED, RINGS, run

FIXTURE = Path(__file__).with_name("golden_cli_text.json")

TIMING = re.compile(r"\(\d+\.\d+s\)")


def text_cases():
    cases = []
    targets = [",".join(map(str, ms)) for ms in even_degree_multisets(10, 2)]
    for degrees in targets + list(NAMED):
        for ring in RINGS + EXTRA_RINGS:
            cases.append(["check", "--degrees", degrees, "--ring", ring])
        cases.append(["primes", "--degrees", degrees])
        for prime in ("2", "3"):
            cases.append(["witness", "--degrees", degrees, "--prime", prime])
        cases.append(["decompose", "--degrees", degrees])
        cases.append(["decompose", "--degrees", degrees, "--prime", "5"])
    cases.append(["verify", "--max-degree", "10", "--max-count", "2"])
    cases.append(["molien-verify"])
    return cases


def run_masked(argv):
    case = run(argv)
    case["stdout"] = TIMING.sub("(*s)", case["stdout"])
    return case


def test_cli_text_outputs_match_the_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    got = [run_masked(argv) for argv in text_cases()]
    assert [case["argv"] for case in got] == [case["argv"] for case in want]
    assert [g["argv"] for g, w in zip(got, want) if g != w] == []


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(run_masked(argv)) for argv in text_cases()) + "\n]")
