import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polycoh
from polycoh.cli import build_parser, main, parse_degrees, parse_ring
from polycoh.catalog import MAX_DEGREES, builtin
from polycoh.errors import (
    InvalidParametersError,
    InvalidTypeError,
    NotAPrimeError,
    RingSpecError,
    SizeLimitError,
)
from polycoh.ntheory import RHO_STEPS
from polycoh.realizability import PrimeSpec
from polycoh.residues import make, normalize
from polycoh.verify import MAX_VERIFY_TYPES, count_types, even_degree_multisets


# ---------------------------------------------------------------- ring parsing


def test_parse_ring_integers():
    assert parse_ring("Z") == PrimeSpec.all_primes()


def test_parse_ring_rationals():
    assert parse_ring("Q") == PrimeSpec.finite([])


def test_parse_ring_prime_field():
    assert parse_ring("F_3") == PrimeSpec.finite([3])
    with pytest.raises(RingSpecError):
        parse_ring("F_4")


def test_parse_ring_inverted_integers():
    assert parse_ring("Z[1/2]") == PrimeSpec.cofinite([2])
    assert parse_ring("Z[1/6]") == PrimeSpec.cofinite([2, 3])
    assert parse_ring("Z[1/2,1/15]") == PrimeSpec.cofinite([2, 3, 5])
    assert parse_ring("Z[1/1]") == PrimeSpec.all_primes() == parse_ring("Z")
    with pytest.raises(RingSpecError):
        parse_ring("Z[1/0]")
    with pytest.raises(RingSpecError):
        parse_ring("Z[2]")


def test_parse_ring_refuses_numbers_past_the_digit_limit():
    ones = "1" * 5000
    limit = f"{sys.get_int_max_str_digits()}-digit limit"
    for ring in (f"F_{ones}", f"Z[1/{ones}]", f"Z[1/2, 1/{ones}]"):
        with pytest.raises(RingSpecError, match=limit):
            parse_ring(ring)


def test_parse_ring_prime_lists():
    assert parse_ring("primes=2,5") == PrimeSpec.finite([2, 5])
    assert parse_ring("primes=mod:6:1,5") == PrimeSpec.listable(
        normalize(make(6, [1, 5]))
    )
    with pytest.raises(RingSpecError):
        parse_ring("primes=2,9")
    with pytest.raises(RingSpecError):
        parse_ring("ring of integers")


# ---------------------------------------------------------------- degree parsing


def test_parse_degrees_forms():
    cat = builtin()
    assert parse_degrees("4,6,8", cat).degrees == (4, 6, 8)
    assert parse_degrees("SU(5)+Sp(2)", cat).degrees == (4, 4, 6, 8, 8, 10)
    assert parse_degrees("4,4+C_6", cat).degrees == (4, 4, 12)
    assert parse_degrees("", cat).degrees == ()
    assert parse_degrees("8, 4", cat).degrees == (4, 8)


# ---------------------------------------------------------------- commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_text(capsys):
    code, out, _ = run_cli(capsys, "check", "--degrees", "4,6", "--ring", "Z")
    assert code == 0
    assert "verdict: realizable" in out
    assert "witness at p=2: SU(3)" in out


def test_check_false_verdict_still_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--degrees", "4,12", "--ring", "Z")
    assert code == 0
    assert "verdict: not realizable" in out
    assert "failing prime: 2" in out


def test_check_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--degrees", "4,12", "--ring", "Z", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "degrees": [4, 12],
        "verdict": False,
        "primeSet": {"modulus": 2, "residues": [1]},
        "witnesses": {},
        "failingPrime": 2,
    }


def test_a_listable_ring_of_no_primes_is_described_and_decided_like_q(capsys):
    # 0 mod 6 and 4 mod 6 hold no prime
    _, out, _ = run_cli(capsys, "check", "--degrees", "4,6", "--ring", "primes=mod:6:0,4")
    assert "ring primes: no primes\nverdict: realizable\n" in out
    assert "witness" not in out
    docs = [
        json.loads(run_cli(capsys, "check", "--degrees", "4,6", "--ring", ring, "--format", "json")[1])
        for ring in ("primes=mod:6:0,4", "Q")
    ]
    assert docs[0] == docs[1]
    assert docs[0]["verdict"] is True and docs[0]["witnesses"] == {}


def test_a_ring_of_no_primes_walks_no_sieve(capsys, monkeypatch):
    def never(bound):
        raise AssertionError("the primes were walked for a set of no classes")

    monkeypatch.setattr("polycoh.realizability.primes_below", never)
    argv = ("check", "--degrees", "4,6", "--ring", "primes=mod:6:0", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] is True and doc["witnesses"] == {}


def test_json_output_is_byte_stable(capsys):
    args = ("check", "--degrees", "12,16", "--ring", "F_3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_text_and_json_verdicts_agree(capsys):
    for degrees, ring in (("4,6", "Z"), ("4,12", "Z"), ("4,12", "F_3")):
        _, text_out, _ = run_cli(capsys, "check", "--degrees", degrees, "--ring", ring)
        _, json_out, _ = run_cli(
            capsys, "check", "--degrees", degrees, "--ring", ring, "--format", "json"
        )
        assert ("verdict: realizable" in text_out) == json.loads(json_out)["verdict"]


def test_primes_command(capsys):
    code, out, _ = run_cli(capsys, "primes", "--degrees", "4,12")
    assert code == 0
    assert out.strip() == "N=2, residues=[1]"


def test_primes_command_order_independent(capsys):
    _, a, _ = run_cli(capsys, "primes", "--degrees", "12,4")
    _, b, _ = run_cli(capsys, "primes", "--degrees", "4,12")
    assert a == b


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, "witness", "--degrees", "4,12", "--prime", "3")
    assert code == 0
    assert out.strip() == "p=3: G_2"
    code, out, _ = run_cli(capsys, "witness", "--degrees", "4,12", "--prime", "2")
    assert code == 0
    assert out.strip() == "not realizable at p=2"


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--degrees", "4,12")
    assert code == 0
    assert out.splitlines() == ["G(6,6,2)", "G_2", "C_6 + SU(2)", "C_6 + Sp(1)"]
    code, out, _ = run_cli(
        capsys, "decompose", "--degrees", "4,12", "--prime", "3"
    )
    assert out.splitlines() == ["G_2"]


def test_subcommands_return_their_answer_and_print_nothing(capsys):
    for argv in (
        ["check", "--degrees", "4,12", "--ring", "primes=mod:100003:1"],
        ["primes", "--degrees", "4,12"],
        ["witness", "--degrees", "4,12", "--prime", "2"],
        ["decompose", "--degrees", "4,12", "--prime", "5"],
        ["catalog"],
        ["verify", "--max-degree", "10", "--max-count", "2"],
        ["molien-verify"],
    ):
        args = build_parser().parse_args(argv)
        doc, lines = args.func(args, builtin())
        assert capsys.readouterr().out == "", argv
        assert json.loads(json.dumps(doc)) == doc, argv
        assert lines and all(isinstance(line, str) for line in lines), argv


def test_a_closed_stdout_ends_the_listing_quietly():
    # The listing is about 200 KB, more than a pipe holds, so the reader
    # closes it while it is still being written.
    env = dict(os.environ, PYTHONPATH=str(Path(polycoh.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "polycoh", "decompose", "--degrees", "SU(8)+SU(8)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"SU(8) + SU(8)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) != 0
    assert err == b""


def test_catalog_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "G(m,r,n)" in out and "G_24" in out
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    doc = json.loads(out)
    assert len(doc["sporadics"]) == 17
    assert {f["name"] for f in doc["families"]} >= {"SU", "Sp", "Spin", "C", "D"}


def test_verify_command_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-degree", "10", "--max-count", "2"
    )
    assert code == 0
    assert "0 mismatches" not in out  # summaries say "ok" when clean
    assert out.count("ok") == 2


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("--max-degree", "40", "--max-count", "6"), "MAX_VERIFY_TYPES = 12000"),
        (("--max-degree", "42", "--max-count", "4"), "MAX_VERIFY_TYPES = 12000"),
        (("--max-count", "1000000000"), "MAX_VERIFY_SIZE = 60"),
        (("--max-degree", "124", "--max-count", "1"), "MAX_VERIFY_SIZE = 60"),
    ],
)
def test_verify_past_its_limits_is_refused_quickly(capsys, argv, limit):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error:") and limit in err


def test_verify_counts_the_types_it_enumerates():
    for max_degree in range(10):
        for max_count in range(-1, 5):
            types = list(even_degree_multisets(max_degree, max_count))
            assert count_types(max_degree, max_count) == len(types)
    assert count_types(40, 4) == 10626 <= MAX_VERIFY_TYPES
    assert count_types(122, 1) == 62


def test_molien_verify_csv(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    code, out, _ = run_cli(capsys, "molien-verify", "--csv", str(csv_path))
    assert code == 0
    assert "0 mismatches" in out.splitlines()[-1]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m,r,n,degrees,verdict,seconds"
    assert len(lines) > 100


def test_molien_verify_csv_into_a_missing_directory_fails_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before the CSV file was opened")

    monkeypatch.setattr("polycoh.cli.verify_degrees", never)
    csv_path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "molien-verify", "--csv", str(csv_path))
    assert code != 0 and out == ""
    assert err.startswith("error:") and "x.csv" in err
    assert not csv_path.parent.exists()


def test_space_separated_degrees_are_refused_with_an_error_line(capsys):
    code, out, err = run_cli(capsys, "primes", "--degrees", "4 6")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'4 6'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("primes", "--degrees", f"SU({'1' * 5000})"),
        ("primes", "--degrees", f"4,{'2' * 5000}"),
        ("check", "--degrees", "4", "--ring", f"F_{'1' * 5000}"),
        ("check", "--degrees", "4", "--ring", f"Z[1/{'1' * 5000}]"),
        ("check", "--degrees", "4", "--ring", f"primes={'1' * 5000}"),
        ("check", "--degrees", "4", "--ring", f"primes=mod:{'1' * 5000}:1"),
    ],
)
def test_numbers_past_the_digit_limit_are_refused_with_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (
        "error: a 5000-digit number is past Python's "
        f"{sys.get_int_max_str_digits()}-digit limit for an int\n"
    )


@pytest.mark.parametrize(
    "name",
    [
        "SU(20000000)",
        "Sp(30000000)",
        "Spin(40000000)",
        "G(3,1,20000000)",
        "G(4,4,3000000)",
    ],
)
def test_types_past_the_degree_limit_are_refused_quickly(capsys, name):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "primes", "--degrees", name)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    limit = f"MAX_DEGREES = {MAX_DEGREES}"
    assert err == f"error: a type may have at most {limit} degrees\n"


def test_joined_pieces_past_the_degree_limit_are_refused():
    half = MAX_DEGREES // 2 + 1
    assert len(parse_degrees(f"SU({half})", builtin())) == half - 1
    with pytest.raises(SizeLimitError, match="MAX_DEGREES"):
        parse_degrees(f"SU({half})+Sp({half})", builtin())


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "check", "--degrees", "7", "--ring", "Z")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "check", "--degrees", "4", "--ring", "Z(p)")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "witness", "--degrees", "4", "--prime", "9")
    assert code == 1 and "error:" in err


def test_inverting_an_unfactorable_integer_is_refused_quickly(capsys):
    # (10^20 + 39)(10^20 + 129): no prime factor within rho's step limit
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "check",
        "--degrees",
        "4,6",
        "--ring",
        "Z[1/10000000000000000016800000000000000005031]",
    )
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert f"limit of {RHO_STEPS} steps" in err


# 2^89 - 1: a prime past the bound up to which primality is decided exactly.
M89 = 2**89 - 1


@pytest.mark.parametrize(
    "degrees, verdict, extra",
    [
        ("4,6", True, {"witnesses": {"2": ["SU(3)"]}}),
        ("4,12", False, {"failingPrime": 2}),
    ],
)
def test_inverting_a_prime_past_the_exact_bound(capsys, degrees, verdict, extra):
    ring = f"Z[1/{M89}]"
    code, out, _ = run_cli(
        capsys, "check", "--degrees", degrees, "--ring", ring, "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] is verdict
    assert {key: doc[key] for key in extra} == extra


def test_cofinite_specs_accept_probable_primes_and_refuse_composites():
    assert PrimeSpec.cofinite([M89]).primes == (M89,)
    with pytest.raises(NotAPrimeError):
        PrimeSpec.cofinite([4])
    with pytest.raises(NotAPrimeError):
        PrimeSpec.finite([M89])


# "\u0663" and "\u0666" are the Arabic-Indic digits 3 and 6.
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_ring("primes=1_1"), RingSpecError),
        (lambda: parse_ring("primes=mod:6:1_1"), RingSpecError),
        (lambda: parse_ring("primes=mod:6:-1"), RingSpecError),
        (lambda: parse_ring("primes=+5"), RingSpecError),
        (lambda: parse_ring("F_\u0663"), RingSpecError),
        (lambda: parse_ring(f"F_{M89}"), RingSpecError),
        (lambda: parse_degrees("4,\u0666", builtin()), InvalidTypeError),
        (lambda: builtin().lookup("SU(\u0663)"), InvalidParametersError),
        (lambda: main(["witness", "--degrees", "4,6", "--prime", "1_1"]), SystemExit),
        (lambda: main(["verify", "--max-degree", "-5"]), SystemExit),
    ],
)
def test_a_number_is_ascii_digits_and_nothing_else(capsys, call, error):
    assert parse_ring("primes=mod:6: 1, 5") == parse_ring("primes=mod:6:1,5")
    start = time.perf_counter()
    with pytest.raises(error) as refusal:
        call()
    assert time.perf_counter() - start < 1
    if error is SystemExit:
        err = capsys.readouterr().err
        assert refusal.value.code == 2
        assert "as a number" in err and "Traceback" not in err


def test_the_grammar_is_built_once():
    assert build_parser() is build_parser()


def test_importing_the_package_leaves_the_cli_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(polycoh.__file__).parents[1]))
    probe = (
        "import sys, polycoh; "
        "print(sorted({'argparse', 'polycoh.cli'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
