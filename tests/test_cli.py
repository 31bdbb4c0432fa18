"""CLI integration tests: exit codes, JSON envelope stability, formats."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tvcount
from tvcount import admissible_tuples, beta_pushforward, cli, counting, cycles, forms, integrate_chern_polynomial, validate
from tvcount._frozen import DEFAULT_MAX_DIGITS
from tvcount.cli import MAX_CLASS_TERMS, MAX_COUNT_TERMS, MAX_TABLE_D, SQUARES_WARNING, main
from tvcount.cycles import gcd2_excess

from .helpers import brute_force_admissible, far_denominators, gamma_terms

# the src directory this tvcount was imported from, for subprocesses
PACKAGE_ROOT = str(Path(tvcount.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count -------------------------------------------------------------------------


def test_count_text(capsys):
    code, out, err = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2")
    assert code == 0
    assert out.strip() == "40"


def test_count_via_total_degree(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "12", "--a", "3", "--b", "2")
    assert code == 0
    assert out.strip() == "3762"


def test_count_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2", "--json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "count"
    assert envelope["inputs"] == {"m": 2, "n": 3, "a": 3, "b": 2}
    assert envelope["result"] == {"m": 2, "n": 3, "a": 3, "b": 2, "d": 6, "gcd": 1, "degree": "40"}
    assert envelope["warnings"] == []
    # canonical emission: parsing and re-serializing reproduces the bytes
    assert json.dumps(envelope, sort_keys=True) == out.strip()


def test_count_json_degree_is_decimal_string(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "10", "--n", "21", "--a", "21", "--b", "10", "--json")
    assert code == 0
    degree = json.loads(out)["result"]["degree"]
    assert isinstance(degree, str)
    assert int(degree) > 2 ** 53


def test_count_degenerate_warning(capsys):
    code, out, err = run_cli(capsys, "count", "--m", "1", "--n", "2", "--a", "2", "--b", "1")
    assert code == 0
    assert "warning" in err

    code, out, _ = run_cli(capsys, "count", "--m", "1", "--n", "2", "--a", "2", "--b", "1", "--json")
    assert code == 0
    assert len(json.loads(out)["warnings"]) == 1


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2)])
def test_count_sum_of_squares_warning(capsys, m, n):
    # the only admissible tuples with a == b == 2, and the only zero counts
    argv = ("count", "--m", str(m), "--n", str(n), "--a", "2", "--b", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, "0\n", f"warning: {SQUARES_WARNING}\n")

    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["warnings"] == [SQUARES_WARNING]


def test_count_invalid_problem_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "--m", "4", "--n", "8", "--a", "4", "--b", "2")
    assert code == 2
    assert "unsupported gcd" in err

    code, _, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "2", "--b", "3")
    assert code == 2

    code, _, err = run_cli(capsys, "count", "--d", "13", "--a", "3", "--b", "2")
    assert code == 2
    assert "divisible" in err


@pytest.mark.parametrize("power, argv", [("a", ["--a", "0", "--b", "2"]), ("b", ["--a", "3", "--b", "0"])])
def test_count_zero_power_exits_2(capsys, power, argv):
    code, out, err = run_cli(capsys, "count", "--d", "6", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {power} must be a positive integer, got 0\n"

    code, _, err = run_cli(capsys, "count", "--d", "6", *[v.replace("0", "-3") for v in argv])
    assert code == 2
    assert f"{power} must be a positive integer, got -3" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--d", "0", "--a", "2", "--b", "3"], "d must be a positive integer, got 0"),
        (["count", "--d", "-6", "--a", "3", "--b", "2"], "d must be a positive integer, got -6"),
        (["table", "--max-d", "-1"], "max_d must be a nonnegative integer, got -1"),
    ],
)
def test_integer_option_below_its_bound_exits_2(capsys, argv, message):
    # the message names the option given, not a value derived from it
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_count_usage_errors_exit_1(capsys):
    code, _, _ = run_cli(capsys, "count", "--a", "3", "--b", "2")
    assert code == 1
    code, _, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--d", "6", "--a", "3", "--b", "2")
    assert code == 1
    code, _, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


def test_internal_failure_exits_3_with_a_traceback(capsys, monkeypatch):
    def broken(problem):
        raise RuntimeError("broken kernel")

    monkeypatch.setattr(counting, "degree_of_power_sum_locus", broken)
    code, out, err = run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: broken kernel\n")


# -- class --------------------------------------------------------------------------


def test_class_smallest(capsys):
    code, out, _ = run_cli(capsys, "class", "--m", "1", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_class_latex(capsys):
    code, out, _ = run_cli(capsys, "class", "--m", "2", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.strip() == (
        "\\zeta_{3}^{2} + \\zeta_{2} \\zeta_{3} + \\zeta_{1} \\zeta_{3} + \\zeta_{1} \\zeta_{2}"
    )


def test_class_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "class", "--m", "2", "--n", "3", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["caps"] == [2, 3, 3]
    assert json.dumps(envelope, sort_keys=True) == out.strip()


def test_class_invalid_exit_2(capsys):
    code, _, err = run_cli(capsys, "class", "--m", "3", "--n", "6")
    assert code == 2
    assert "unsupported gcd" in err
    code, _, _ = run_cli(capsys, "class", "--m", "3", "--n", "2")
    assert code == 2


def not_built(m, n):
    raise AssertionError(f"the class for ({m}, {n}) was built")


@pytest.mark.parametrize("m, n", [(1, 50_000), (315, 317), (600, 1201), (10**9, 2 * 10**9 + 1)])
def test_class_over_its_term_budget_exits_2_before_building(capsys, monkeypatch, m, n):
    assert (m + 1) * (n + 1) > MAX_CLASS_TERMS
    monkeypatch.setattr(cycles, "beta_pushforward", not_built)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "class", "--m", str(m), "--n", str(n), "--format", "json")
    assert (code, out) == (2, "") and time.perf_counter() - t0 < 1
    assert err.count("\n") == 1 and f"more than the {MAX_CLASS_TERMS} that class builds" in err


def test_class_at_its_term_budget_is_built(capsys, monkeypatch):
    # (m+1)(n+1) == MAX_CLASS_TERMS at (1, 49 999)
    built = []
    monkeypatch.setattr(cycles, "beta_pushforward", lambda m, n: built.append((m, n)) or beta_pushforward(1, 1))
    assert run_cli(capsys, "class", "--m", "1", "--n", "49999") == (0, "1\n", "")
    assert built == [(1, 49_999)]


def test_no_class_under_the_budget_has_a_coefficient_too_long_to_print():
    # beta's coefficients are C(P+Q, P) with P <= m, Q <= n, P+Q <= m+n-2,
    # less the gcd-2 excess; for a given m both grow with n, and C(m+n-2, P)
    # peaks on P in [m-2, m]
    longest = 0
    for m in range(1, math.isqrt(MAX_CLASS_TERMS)):
        n = MAX_CLASS_TERMS // (m + 1) - 1
        excess = sum(gcd2_excess(m, n)) if m > 1 else 0
        largest = max(math.comb(m + n - 2, p) for p in range(max(m - 2, 0), m + 1)) + excess
        longest = max(longest, len(str(largest)))
    # the lowest limit sys.set_int_max_str_digits accepts, other than 0 (none)
    lowest = getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert longest < 200 < lowest


# -- transvect -------------------------------------------------------------------------


def test_transvect_examples(capsys):
    code, out, _ = run_cli(capsys, "transvect", "--f", "1,0,0", "--g", "0,1")
    assert (code, out.strip()) == (0, "2,0")

    code, out, _ = run_cli(capsys, "transvect", "--f", "1,1", "--g", "1,1")
    assert (code, out.strip()) == (0, "0")

    code, out, _ = run_cli(capsys, "transvect", "--f", "1,0", "--g", "0,1")
    assert (code, out.strip()) == (0, "1")


def test_transvect_rational_coefficients(capsys):
    code, out, _ = run_cli(capsys, "transvect", "--f", "1/2,0,0", "--g", "0,1")
    assert (code, out.strip()) == (0, "1,0")


def test_transvect_binomial_input(capsys):
    # (x+y)^2 and x+y in binomially weighted coordinates; powers of a common
    # form have vanishing transvectant
    code, out, _ = run_cli(capsys, "transvect", "--f", "1,1,1", "--g", "1,1", "--binomial")
    assert (code, out.strip()) == (0, "0,0")

    # f = 1,2,3 weighted is x^2 + 4xy + 3y^2; {f, 4x + 5y} = 5 f_x - 4 f_y
    argv = ("transvect", "--f", "1,2,3", "--g", "4,5", "--binomial")
    assert run_cli(capsys, *argv) == (0, "-6,-4\n", "")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == (
        '{"command": "transvect", "inputs": {"binomial": true, "f": "1,2,3", "g": "4,5"}, '
        '"result": {"coeffs": ["-6", "-4"], "degree": 1}, "warnings": []}\n'
    )


def test_transvect_json(capsys):
    code, out, _ = run_cli(capsys, "transvect", "--f", "1,0,0", "--g", "0,1", "--json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"] == {"degree": 1, "coeffs": ["2", "0"]}
    assert json.dumps(envelope, sort_keys=True) == out.strip()


def test_transvect_negative_leading_coefficient(capsys):
    # a value after --f/--g that starts with a minus sign is a value, not an option
    code, out, _ = run_cli(capsys, "transvect", "--f", "-1,2", "--g", "1,1")
    assert (code, out.strip()) == (0, "-3")
    assert run_cli(capsys, "transvect", "--f=-1,2", "--g", "1,1")[:2] == (0, "-3\n")

    code, out, _ = run_cli(capsys, "transvect", "--g", "-1/2,0", "--f", "-1,0,0", "--json")
    assert code == 0
    assert json.loads(out)["inputs"] == {"f": "-1,0,0", "g": "-1/2,0", "binomial": False}

    # a flag in the value's place is still a usage error
    code, _, err = run_cli(capsys, "transvect", "--f", "--g", "1,1")
    assert code == 1
    assert "expected one argument" in err


def test_transvect_malformed_exit_1(capsys):
    code, _, err = run_cli(capsys, "transvect", "--f", "1,oops", "--g", "0,1")
    assert code == 1
    assert "malformed" in err
    code, _, _ = run_cli(capsys, "transvect", "--f", "1/0", "--g", "0,1")
    assert code == 1


def timed_cli(capsys, *argv):
    t0 = time.perf_counter()
    result = run_cli(capsys, *argv)
    return (*result, time.perf_counter() - t0)


@pytest.mark.parametrize("coefficient", ["1e10000000", "-2E-10000000", "1e+1_0000000"])
def test_transvect_huge_exponent_exits_1_quickly(capsys, coefficient):
    # Fraction() would spend seconds building a 10-million-digit power of ten
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", f"{coefficient},1", "--g", "1,1")
    assert (code, out) == (1, "")
    assert "malformed coefficient list" in err and "exponent" in err
    assert seconds < 1


needs_str_digits_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python does not limit str(int)"
)


@needs_str_digits_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_transvect_result_too_long_to_print_exits_2_quickly(capsys, extra):
    # {f, g} = 10^limit has one digit more than str() may print
    limit = sys.get_int_max_str_digits()
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", f"1e{limit},0", "--g", "0,1", *extra)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "too long to print" in err
    assert seconds < 1


@needs_str_digits_limit
def test_transvect_exponent_bound_when_printing_is_unlimited(capsys):
    # with the limit off, results of any length print, and exponents are
    # still bounded by the interpreter's default limit
    limit = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    assert default == DEFAULT_MAX_DIGITS
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_cli(capsys, "transvect", "--f", f"1e{default},0", "--g", "0,1")
        assert (code, out) == (0, "1" + "0" * default + "\n")
        code, _, err, seconds = timed_cli(capsys, "transvect", "--f", "1e10000000,1", "--g", "1,1")
        assert code == 1 and seconds < 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_interpreter_without_str_digits_limit(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 have no sys.get_int_max_str_digits: counts
    # print, and DEFAULT_MAX_DIGITS still bounds decimal exponents
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run_cli(capsys, "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2") == (0, "40\n", "")
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", "1e10000000,1", "--g", "1,1")
    assert (code, out) == (1, "")
    assert f"exceeds {DEFAULT_MAX_DIGITS}" in err and seconds < 1


@pytest.fixture
def str_digits():
    """sys.set_int_max_str_digits for one test, the old limit restored after."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def chern_count(problem) -> int:
    # the count as the Chern integral of gamma, a closed form that is fast
    # where the count's kernel takes a minute
    return integrate_chern_polynomial(problem, gamma_terms(problem.m + problem.n))


def test_digit_estimate_is_the_digit_count_at_the_default_limit():
    # (k, 2k+1, 2k+1, k): (510, ...) has exactly 4300 digits and prints,
    # (511, ...) with 4309 is the smallest over the limit
    digits = {}
    for k in (*range(505, 525), 540):
        digits[k] = math.floor(k * math.log10(2 * k + 1) + (2 * k + 1) * math.log10(k)) + 1
        assert 10 ** (digits[k] - 1) <= chern_count(validate(k, 2 * k + 1, 2 * k + 1, k)) < 10 ** digits[k], k
    assert (digits[510], digits[511], digits[520], digits[540]) == (4300, 4309, 4397, 4592)


def not_computed(problem):
    raise AssertionError(f"{problem} was computed")


@needs_str_digits_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
@pytest.mark.parametrize("k", [511, 540])
def test_count_over_the_digit_limit_exits_2_before_computing(capsys, str_digits, monkeypatch, extra, k):
    str_digits(DEFAULT_MAX_DIGITS)
    monkeypatch.setattr(counting, "degree_of_power_sum_locus", not_computed)
    argv = ("count", "--m", str(k), "--n", str(2 * k + 1), "--a", str(2 * k + 1), "--b", str(k), *extra)
    code, out, err, seconds = timed_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 4300 digits" in err
    assert seconds < 1


@needs_str_digits_limit
def test_count_at_the_default_digit_limit_is_computed(str_digits):
    str_digits(DEFAULT_MAX_DIGITS)
    assert cli._too_long(validate(510, 1021, 1021, 510)) is None


@needs_str_digits_limit
@pytest.mark.parametrize(
    "limit, argv",
    [
        (DEFAULT_MAX_DIGITS, ("--m", "2", "--n", "1000000", "--a", "500000", "--b", "1")),
        (DEFAULT_MAX_DIGITS, ("--d", "1000000000000", "--a", "1000000000000", "--b", "1")),
        (0, ("--m", "1000", "--n", "1001", "--a", "1001", "--b", "1000")),
    ],
)
def test_count_over_its_term_budget_exits_2_before_computing(capsys, str_digits, monkeypatch, limit, argv):
    # the digit estimate gives b = 1 no weight, and a limit of 0 turns it off:
    # unchecked, the first takes 4 s and 700 MiB to print 0, and the second
    # runs out of memory building beta
    str_digits(limit)
    monkeypatch.setattr(counting, "degree_of_power_sum_locus", not_computed)
    code, out, err, seconds = timed_cli(capsys, "count", *argv)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and f"terms, more than the {MAX_COUNT_TERMS} that count builds" in err


@needs_str_digits_limit
@pytest.mark.parametrize("m, n, a, b", [(510, 1021, 1021, 510), (784, 862, 431, 392), (1, 499_999, 499_999, 1)])
def test_count_at_or_under_its_term_budget_is_computed(capsys, str_digits, monkeypatch, m, n, a, b):
    # (784, 862, 431, 392) has the most terms, 677 455, of the counts with
    # a, b >= 2 that pass the digit estimate at the default limit; (1, 499 999)
    # is at the budget
    str_digits(DEFAULT_MAX_DIGITS)
    computed = []
    monkeypatch.setattr(counting, "degree_of_power_sum_locus", lambda problem: computed.append(problem) or 1)
    code, out, _ = run_cli(capsys, "count", "--m", str(m), "--n", str(n), "--a", str(a), "--b", str(b))
    assert (code, out) == (0, "1\n")
    assert computed == [validate(m, n, a, b)]


# (104, 209, 209, 104) has 663 digits and floor(m log10 a + n log10 b) = 662
BOUNDARY = (104, 209, 209, 104)
BOUNDARY_ARGV = ("count", "--m", "104", "--n", "209", "--a", "209", "--b", "104")


@needs_str_digits_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_count_digit_limit_boundary(capsys, str_digits, monkeypatch, extra):
    str_digits(663)
    code, out, _, seconds = timed_cli(capsys, *BOUNDARY_ARGV, *extra)
    assert code == 0 and seconds < 1
    if extra:
        out = json.loads(out)["result"]["degree"] + "\n"
    assert len(out) == 664

    # refused once computed: the estimate leaves it to str()
    str_digits(662)
    code, out, err, seconds = timed_cli(capsys, *BOUNDARY_ARGV, *extra)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and "more than 662 digits" in err

    # refused before computing
    str_digits(661)
    monkeypatch.setattr(counting, "degree_of_power_sum_locus", not_computed)
    code, out, err, seconds = timed_cli(capsys, *BOUNDARY_ARGV, *extra)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and "more than 661 digits" in err


def test_no_table_row_under_the_budget_is_too_long_to_print():
    # a count is a^m b^n less corrections made of binomials in N = m+n, each
    # below 2^N <= a^m b^n, times factors below d^4 <= 10^12: it has at most
    # 13 digits more than the estimate floor(m log10 a + n log10 b) + 1
    longest = max(
        math.floor(p.m * math.log10(p.a) + p.n * math.log10(p.b)) + 1 for p in admissible_tuples(MAX_TABLE_D)
    )
    assert longest == len(str(chern_count(validate(6, 332, 166, 3)))) == 172
    # the lowest limit sys.set_int_max_str_digits accepts, other than 0 (none)
    lowest = getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert longest + 13 < lowest


def test_transvect_degree_zero_exit_2(capsys):
    code, _, err = run_cli(capsys, "transvect", "--f", "5", "--g", "0,1")
    assert code == 2
    assert "below degree 1" in err


def not_parsed(degree, coeffs):
    raise AssertionError(f"the form of degree {degree} was parsed")


@pytest.mark.parametrize("m, n", [(1000, 999), (1, 500_000), (65_534, 65_534)])
def test_transvect_over_its_term_budget_exits_2_before_parsing(capsys, monkeypatch, m, n):
    # 65 535 coefficients fill one 128 KiB argument; a transvectant of two
    # such forms would take minutes
    assert (m + 1) * (n + 1) * 100 > forms.MAX_TRANSVECT_WORK
    monkeypatch.setattr("tvcount.forms.BinaryForm", not_parsed)
    f, g = ",".join(["1/3"] * (m + 1)), ",".join(["-2"] * (n + 1))
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", f, "--g", g, "--json")
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and f"more than the {forms.MAX_TRANSVECT_WORK} it computes" in err
    assert f"(m,n)=({m},{n}) takes (m+1)(n+1)*100 = {(m + 1) * (n + 1) * 100} bit-products" in err


def test_transvect_at_its_term_budget_is_computed(capsys, monkeypatch):
    # (m+1)(n+1) == 12 at degrees (2, 3) and (3, 2), and 16 at (3, 3); each
    # product counts at 100 bit-products
    monkeypatch.setattr(forms, "MAX_TRANSVECT_WORK", 12 * 100)
    assert run_cli(capsys, "transvect", "--f", "1,0,0", "--g", "0,0,0,1") == (0, "0,0,6,0\n", "")
    assert run_cli(capsys, "transvect", "--f", "0,0,0,1", "--g", "1,0,0", "--binomial") == (0, "0,0,-6,0\n", "")
    code, out, err = run_cli(capsys, "transvect", "--f", "0,0,0,1", "--g", "1,0,0,0")
    assert (code, out) == (2, "") and "= 1600 bit-products, more than the 1200 it computes" in err


def test_transvect_of_a_million_products_of_ones_is_computed(capsys):
    # two forms of 1000 ones: 10^6 products at 100 bit-products each, the
    # most the work bound admits; {f, f} = 0
    ones = ",".join(["1"] * 1000)
    code, out, err = run_cli(capsys, "transvect", "--f", ones, "--g", ones)
    assert (code, out, err) == (0, ",".join(["0"] * 1997) + "\n", "")


@pytest.mark.parametrize("k", [75, 100])
def test_transvect_over_its_work_bound_exits_2_quickly(capsys, k):
    # forms of k coefficients 1/<100-digit number>: unbounded, k = 100 ran
    # 9.4 s before it exited 2 for a result too long to print
    f, g = ",".join(far_denominators(1, k)), ",".join(far_denominators(2, k))
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", f, "--g", g)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and f"(m,n)=({k - 1},{k - 1}) takes (m+1)(n+1)*" in err
    assert f"bit-products, more than the {forms.MAX_TRANSVECT_WORK} it computes" in err


def test_transvect_of_long_numerators_exits_2_quickly(capsys):
    # two forms of 200 coefficients 1e4000, a 1.4 KB argv: counted by their
    # denominators alone, they were computed, in about 6.5 s
    huge = ",".join(["1e4000"] * 200)
    code, out, err, seconds = timed_cli(capsys, "transvect", "--f", huge, "--g", huge)
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and "(m,n)=(199,199) takes (m+1)(n+1)*26576 = " in err
    assert f"bit-products, more than the {forms.MAX_TRANSVECT_WORK} it computes" in err


def test_transvect_binomial_with_long_binomial_numerators_exits_2(capsys):
    # 1000 ones in the binomial basis are C(999, i) in the plain one, up to
    # 994 bits each, where 1000 plain ones are computed
    ones = ",".join(["1"] * 1000)
    code, out, err = run_cli(capsys, "transvect", "--f", ones, "--g", ones, "--binomial")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "(m,n)=(999,999) takes (m+1)(n+1)*1988 = " in err


# the transvect items of bench/run.py's cli_items for seeds 1, 7919 and 3,
# copied so that the benchmark can change without moving the pin below
TRANSVECT_SEEDED = (
    # seed 1
    ("--f=9,-1,3/2,3/2,-3,6,3/4,-9/4,-1/2,9,1,-9,8,3/2,4,7/2,5/4,4,1,-1/2,0,4/5,-3,0,1/5,4/5,-1,0,6/5", "--g=9,3,3/4,-4/3,8/3,-7/4,7,-4/5,1,6,6,0,9/5,3/2,-4/5,-2,-3/5,4,3/5,2/5,1/2,-1/5,-9/4,7/2,7/5,-3/4,-2,2/5,4,7/4,2,4/3,-9/5,8/5,1/4,-9/2,-4/5,9/2,-7/5,-1,-7,-9/4,-3,-2/3,-6/5,-4/3"),
    ("--f=-7/2,-4/3,7/2,-1/3,5/3,3/2,-6,0,1/4,-1,-2,7/2,4,-2,3/2,-4,1,4/5,-2/5,5/2,7,3/5,1/4,-8/3,-5/2,-8/3,-7,0,-1,3,-5,8,9/2,9/4,-4/5,7,3/2,2,-3/5", "--g=9/2,6,1,7/4,-3,1,-9/2,-1,9/2,1/4,-1,-3/2,8/3,2,4,-7,-7/2,-2,4,-1/3,7/3,2/3,1,0,3,9/5,-2,-2,-7/4,-5/2,1,9/4,-7/5,4,9,-1/3,0,8,5/3,-6,0,-9,4,-4,-2/5,2,-3/2,-2"),
    ("--f=2,2,-9/4,1/2,-1/4,-9/4,9,-8/3,9/2,9/2,-5/3,-1/4,9/4,-4/5,-7/2,6,-4/5,1/5,5/2,-2/3,3/2,-1/2,1/5,-1/2,-8,7/3,-4/5,-1,0,8/3,-1,-7,7/5,3/2,-5/3,2,9", "--g=1,3/5,-4/5,-8/5,-7/3,-2,-7/2,-7/4,-1/2,1,-4/3,5/2,3,-3/2,2,-2,-1/2,3/5,-9/2,7/4,9,-9/5,-2/3,-3/2,0,4,-1/3,3,5/2,8/3,3/2,-3,9/4,-1,-6,-6/5,-9/5,0,-7/5,2/5,0,7/3,7/3,-9,5/4,2/3,2,1/5,6,3/4,-3/5,-3", "--json"),
    ("--f=-3/2,3/5,0,-1/4,1,-1,-8,-3,1/4,1,3,-7/3,5,-1/2,2,2/3,-4/5,-1,-3/2,2,-1,5,3,-1/2,0,1/2,1/5,0,1,8/5,9/5", "--g=-1,-9/2,3,-1/5,-7,-9,0,3/2,-5,7/3,-7/5,-2,-5/2,1/3,-6/5,0,-3/2,8,1/5,4,-4/3,4/5,-4,-2/3,-7/4,4/5", "--json"),
    # seed 7919
    ("--f=-1,9,-2/5,-1/2,1,-5/2,7,8,-9/2,9/4,-9/4,-2,1/4,-2/3,9/5,-9,-5/2,-4/5,-1/3,7/5,8/3,5/3,5/2,1,4/3,-6/5,-7/2,-2,-1/4,-7/2,7/3,5/4,-1/2,-4,-4/5,8,9,2,7/2,-9/5,-2,-4/3,5,-7/5,-5/3,6/5,9/2,6/5,7/5,3,7/2,9,-3/5,-9/2,1/2,2/5,-3", "--g=-2/5,0,0,-3/4,7/5,-2/3,-2/5,-7/4,8/5,1/4,3/5,1,-6,-1/2,-8/5,-2,-2/3,-3/4,3/4,4/3,-9/2,7/2,9,4,7/3,1/2,-1/2,-2/5,3/4,3/5"),
    ("--f=-1,2/3,1/5,3,2/5,1/2,7/2,9/4,9,9/5,-5/3,3,2,-4/5,1/2,5/4,7/3,3/2,-1/4,-6,-1/3,-7,-7/4", "--g=-8,3,-3,2,-8/5,-4/5,2,1,-8,7,8/5,-9/4,5,-3/5,3/4,9/5,1/2,-7/5,-5/3,5/2,3/2,-3,7/2", "--json"),
    ("--f=5/3,-9/2,-6,-1/5,-3,1,-4,-1/3,-1,-1,3/2,-3/2,-3,1,-3,8,-4/5,2,5/2,0,7,-4/3,-4/3,7,9/4,7/4,5,-1,4,1,-9/5,-3,-9/5,0,-1/3,2,8,-4,0,9/2,-1/5,-3/2,-1,-2/3,9/2,-1,3,-3", "--g=0,-3/2,5/4,-7/5,-1,-3,-3/2,1,-7/5,7,-7/2,8/5,5/3,-2/3,-1/4,-8/5,-1,-3/2,1,5/4,9/5,-1/2,-5/4,-6/5,6/5,5,7/5,0,-4,-1,3,-5/4,3/2,5/2,-3/4,-4/5,1,5/4,-5/4,-8,-1/2,3/4,1/3,-2,-2/3,-1,4,-3/5,2,1/2,-2,-1/5,-2,1/5,0,1", "--json"),
    ("--f=3,1/2,4,-3,3/5,8/5,-2/5,-3/2,1/5,-7/3,7,2/5,-9/5,1,-1/2,-1,7/4,1,-5,3/2,-4,5/4,-4/3,-7/3,0,-2,-3/2,-1,6/5,-6/5,-2,1/3,2,-9/5,2,0,5/4,-5/2,-9/5,-5,1,-3/2,8,3/2,0,-4,-1/2,-5,4,-8,-9,-8,3/4,-6/5,3/2,0,3/5,-7/5,-1/3,-1/3,7", "--g=1,3/2,1,-4,-3,7/5,-2,0,3/4,-9/5,7/5,6,0,3/5,5/2,-5/2,9/2,-1,1,5/2,-5,4,1/4,-8/5,5/4,5/4,-5/2,9/5,4,9,1/4,7/5,-3/4,0,-7,3,-3/2,-5/2,-3/2,-8/3,9/5,-2,3,1/2,3/2,0,1,4/5,1/4,3,-4,0,-7/2,7/4,3/5,2"),
    # seed 3
    ("--f=8/3,-9/4,3,-9/4,9/2,-8/3,5/3,2/5,-1/4,-9/5,-8,2/3,5/3,9/5,1/2,1,1/3,-1/3,3,-9/5,-5/3,7/2,-1/2,1/2,4,-6/5,1/3,-1/2,-4,1/2,9/4,-1/2,-6,7/2,1/5,-4/3,1,2/5,-5/4,0", "--g=5/3,4/3,4/5,4,2,-3,6/5,7/4,4,-2,7/3,8/3,-2,3,-3,-8,7/2,4/5,-8,6,-4/5,0,-9/5,2,-8/5,-2,-5/3,2,-8/3,-1,-6/5,-3,-2/3,-5,6/5,3,-1/2,-1/5"),
    ("--f=7/4,-2,1,-4,-8,-8,6,-7/5,7/4,1/2,1,1/2,3/5,0,-1/2,1/4,-3,8,3,9/2,-8/3,1,2,-8/5,4,1/2,1/4,1,-9/2,-3/5,-1/5,-7/4,-1/2,-5,1/3,8/3,-3/2,-6/5,3,1/5,8,9,3,-1/2,-8/5,-7/5,-3/2,-4,1,-9,2,3,-7,9/5", "--g=-2,8,8,8/3,9/2,-7/2,-2,1,1,2/5,1,2,-7/4,7/2,2,4/5,9/5,3,3/2,-4,3/2,7/4,9/2,-5/3,-3/2,9/5,1/2,8/3,4/5,9/5,-1/2,0,-1/4,3/2,-4/5,1,1/4,-5/4,6/5,-3/4,9/5,-9/4,-7/4,-2,-1,-7/2,-1/2,-1,-5/2,-8/3,-4,1/2,4,-7", "--json"),
    ("--f=-1/3,-8/3,1,1,-3,1/4,3/4,-7/2,9/4,3/2,8/3,-2,-7/4,-3/2,7/3,-6/5,2/3,5/3,-1,1/5,8/5,-3/2,7/3,-8/3,9/2,-5/2", "--g=5,-6/5,-5/3,4/5,0,5/4,0,-7,-4/5,8/5,1,-2,-1/4,-4,-2,7/3,-2/5,2/3,3/4,8,1/2,-3,-1/5,-6,9,-2,9/4,3/2,9/5,-5/4,-3/5,7/2,9/2,-1,2/3,-9/4,1,1/5,3,6/5,0,-9/5,-3,-3", "--json"),
    ("--f=9/5,-5/3,6/5,-7/5,-9/4,-1/5,-1,6/5,2,3/2,-1,7/4,-9,-4/5,-8/3,-3,6/5,3/4,3/5,5/2,2,-4,3,-1/4,0,7/4,3,8/5,4/5,-2/3,-3,-4/3,8/5,9,-3/5,-1/3", "--g=-7/4,6,2,2,-3,1,-6,-2,3,8/3,7/2,-8/3,-9,-6/5,8,-3/4,0,-1/2,-8/3,1/3,-5/4,3/4,7/4,8,7/3,2,0,-1/5"),
)

# whitespace, malformed text, a zero denominator, non-finite values, an
# exponent over the digit limit, results at and over it, degree 0, decimal
# and underscored numbers, and an empty part
TRANSVECT_EDGES = (
    ("--f", " 1 , -2/3 ,5", "--g", "\t3,4 "),
    ("--f", "1,oops", "--g", "1,1"),
    ("--f", "1/0,1", "--g", "1,1"),
    ("--f", "nan,1", "--g", "1,1"),
    ("--f", "1,inf", "--g", "1,1"),
    ("--f", "1e99999999,1", "--g", "1,1"),
    ("--f", "1e4299,0", "--g", "0,1"),
    ("--f", "1e4300,0", "--g", "0,1", "--json"),
    ("--f", "5", "--g", "0,1"),
    ("--f", "1.5e3,1_000,-7/3", "--g", "-1,2", "--json"),
    ("--f", "1,,2", "--g", "1,1"),
)

# sha256 over (argv, exit code, stdout, stderr) of every corpus command
TRANSVECT_SURFACE_SHA256 = "1d985620123dd8dd64d201f0638fe5070fd26d4864a66f457c47e9a3f534510b"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Fraction reads underscores from Python 3.11 on")
def test_transvect_surface_is_pinned(capsys, str_digits):
    # each seeded and edge command, in the plain and the binomial basis
    str_digits(DEFAULT_MAX_DIGITS)
    records = []
    for args in TRANSVECT_SEEDED + TRANSVECT_EDGES:
        for extra in ((), ("--binomial",)):
            argv = ["transvect", *args, *extra]
            records.append([argv, *run_cli(capsys, *argv)])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == (46, TRANSVECT_SURFACE_SHA256)


# -- table ------------------------------------------------------------------------------


def test_table_contains_clebsch_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-d", "6")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["d", "a", "b", "m", "n", "gcd", "degree"]
    assert ["6", "3", "2", "2", "3", "1", "40"] in rows


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-d", "5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,a,b,m,n,gcd,degree"
    rows = [line.split(",") for line in lines[1:]]
    assert ["4", "2", "2", "2", "2", "2", "0"] in rows
    assert all(row[5] in ("1", "2") for row in rows)


def not_enumerated(max_d):
    raise AssertionError(f"admissible_tuples({max_d}) was enumerated")


@pytest.mark.parametrize("max_d", [MAX_TABLE_D + 1, 27_000, 10**12])
def test_table_over_its_budget_exits_2_before_building_a_row(capsys, monkeypatch, max_d):
    # unchecked, --max-d 27000 builds 824 912 rows in seconds before it refuses one
    monkeypatch.setattr(counting, "admissible_tuples", not_enumerated)
    code, out, err, seconds = timed_cli(capsys, "table", "--max-d", str(max_d), "--csv")
    assert (code, out) == (2, "") and seconds < 1
    assert err == f"error: table --max-d {max_d} is above {MAX_TABLE_D}, the largest that table builds\n"


def test_table_at_its_budget_is_built(capsys, monkeypatch):
    asked = []
    monkeypatch.setattr(counting, "admissible_tuples", lambda max_d: asked.append(max_d) or [])
    assert run_cli(capsys, "table", "--max-d", str(MAX_TABLE_D), "--csv") == (0, "d,a,b,m,n,gcd,degree\n", "")
    assert asked == [MAX_TABLE_D]


# sha256 of `table --max-d 120 --csv`, taken from the tree before the count
# kernel built gamma and beta by running products: no count may change, and
# this reaches sizes (m+n up to 121) the sympy reference test does not
TABLE_120_SHA256 = "38569d4958573e097298a359050c3416878c23a45ac831857dd6872c9eb3fff2"


def test_table_120_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "table", "--max-d", "120", "--csv")
    assert code == 0
    assert len(out.splitlines()) == 986 + 1
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_120_SHA256


# sha256 of `table --max-d 40`: the aligned columns, padding included
TABLE_40_ALIGNED_SHA256 = "1b0168ca272e87cc2362ec0ac15fecb2939cf25827f10b4a4cd5305fb3ef4406"


def test_table_40_aligned_output_is_pinned(capsys, monkeypatch, pool_map_calls):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "table", "--max-d", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_40_ALIGNED_SHA256
    # the pooled rows pad to the same widths
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("TVCOUNT_THREADS", "2")
    assert run_cli(capsys, "table", "--max-d", "40") == (0, out, "")
    assert len(pool_map_calls) == 1


def test_table_deterministic_and_thread_capped(capsys, monkeypatch):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, serial_out, _ = run_cli(capsys, "table", "--max-d", "10", "--csv")
    assert code == 0

    monkeypatch.setenv("TVCOUNT_THREADS", "2")
    code, parallel_out, _ = run_cli(capsys, "table", "--max-d", "10", "--csv")
    assert code == 0
    assert parallel_out == serial_out

    monkeypatch.setenv("TVCOUNT_THREADS", "weird")
    code, fallback_out, err = run_cli(capsys, "table", "--max-d", "10", "--csv")
    assert code == 0
    assert fallback_out == serial_out
    assert "TVCOUNT_THREADS" in err


@pytest.fixture
def pool_map_calls(monkeypatch):
    """The keyword arguments of every ProcessPoolExecutor.map call; the calls
    still run."""
    from concurrent.futures import ProcessPoolExecutor

    calls = []
    original = ProcessPoolExecutor.map

    def recording_map(self, fn, *iterables, **kwargs):
        calls.append(kwargs)
        return original(self, fn, *iterables, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
    return calls


@pytest.mark.parametrize(
    "max_d, threads, rows, chunksize",
    [
        # 210 rows in chunks of 27: the last chunk is short
        ("40", "2", 210, 27),
        # 11 rows, fewer than 4 * 3 workers: chunks of one row
        ("6", "3", 11, 1),
    ],
)
def test_table_pool_chunks_rows_and_keeps_output(capsys, monkeypatch, pool_map_calls, max_d, threads, rows, chunksize):
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    # enough CPUs that TVCOUNT_THREADS sets the worker count
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    code, serial_out, _ = run_cli(capsys, "table", "--max-d", max_d, "--csv")
    assert code == 0
    assert len(serial_out.splitlines()) == rows + 1
    assert pool_map_calls == []
    # rows come in (d, a, b) order with no sort: admissible_tuples yields
    # that order and the pool's map keeps it
    order = [tuple(map(int, line.split(",")[:5])) for line in serial_out.splitlines()[1:]]
    assert order == brute_force_admissible(int(max_d))

    monkeypatch.setenv("TVCOUNT_THREADS", threads)
    code, pooled_out, _ = run_cli(capsys, "table", "--max-d", max_d, "--csv")
    assert code == 0
    assert pool_map_calls == [{"chunksize": chunksize}]
    assert pooled_out == serial_out


@pytest.mark.parametrize("max_d, cpus, workers", [("120", 2, 2), ("40", 8, 8), ("6", 64, 11)])
def test_table_pool_has_at_most_one_worker_per_cpu(capsys, monkeypatch, max_d, cpus, workers):
    # capped by the row count alone, TVCOUNT_THREADS=100000 asked for 986
    # workers at --max-d 120 (15 237 at 1000), all started at once
    sizes = []

    class RecordingPool:
        """Records max_workers and maps the rows in this process: no worker
        is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setenv("TVCOUNT_THREADS", "100000")
    code, out, _ = run_cli(capsys, "table", "--max-d", max_d, "--csv")
    assert (code, sizes) == (0, [workers])
    monkeypatch.delenv("TVCOUNT_THREADS")
    assert run_cli(capsys, "table", "--max-d", max_d, "--csv") == (0, out, "")


def test_table_runs_serially_when_no_pool_starts(capsys, monkeypatch):
    class NoPool:
        def __init__(self, max_workers):
            raise OSError("no semaphores")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    monkeypatch.delenv("TVCOUNT_THREADS", raising=False)
    code, serial_out, _ = run_cli(capsys, "table", "--max-d", "40", "--csv")
    assert code == 0
    monkeypatch.setenv("TVCOUNT_THREADS", "2")
    warning = "warning: parallel evaluation unavailable (no semaphores); running serially\n"
    assert run_cli(capsys, "table", "--max-d", "40", "--csv") == (0, serial_out, warning)


@pytest.mark.parametrize("count, cpus", [(6, 6), (None, 1)])
def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch, count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli._usable_cpus() == cpus


# -- selftest ----------------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)

    code, out2, _ = run_cli(capsys, "selftest")
    assert out2.strip().splitlines() == lines


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tvcount.cli", "count", "--m", "2", "--n", "3", "--a", "3", "--b", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "40"


# -- stdout's reader gone ------------------------------------------------------------


def cli_env(unbuffered: bool = False) -> dict:
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", ["count --m 2 --n 3 --a 3 --b 2", "selftest", "table --max-d 40", "--help", "count --help"])
def test_closed_stdout_exits_1_with_nothing_on_stderr(argv, unbuffered):
    # stdout is a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tvcount.cli", *argv.split()],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=cli_env(unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_reader_that_stops_after_one_line_exits_1_with_nothing_on_stderr():
    # `tvcount table --max-d 300 | head -n 1`: the 289 KB table fills the pipe
    # long before the reader closes it
    proc = subprocess.Popen(
        [sys.executable, "-m", "tvcount.cli", "table", "--max-d", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert header.split() == [b"d", b"a", b"b", b"m", b"n", b"gcd", b"degree"]
    assert err == b""


# -- stderr's reader gone ------------------------------------------------------------

TABLE_4_CSV = b"d,a,b,m,n,gcd,degree\n2,2,2,1,1,1,0\n3,3,3,1,1,1,2\n4,2,2,2,2,2,0\n4,4,2,1,2,1,6\n4,4,4,1,1,1,6\n"


def run_with_closed_stderr(args: list[str], env: dict) -> subprocess.CompletedProcess:
    # stderr is a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, stderr=write_end, env=env, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "argv, threads, code, out",
    [
        # a warning, then the count
        pytest.param("count --m 2 --n 2 --a 2 --b 2", None, 0, b"0\n", id="count --m 2 --n 2 --a 2 --b 2"),
        pytest.param("count --m 1 --n 2 --a 2 --b 1", None, 0, b"0\n", id="count --m 1 --n 2 --a 2 --b 1"),
        # the TVCOUNT_THREADS warning, then the table
        pytest.param("table --max-d 4 --csv", "x", 0, TABLE_4_CSV, id="TVCOUNT_THREADS=x table --max-d 4 --csv"),
        # an error from _fail
        pytest.param("count --m 3 --n 6 --a 2 --b 1", None, 2, b"", id="count --m 3 --n 6 --a 2 --b 1"),
        pytest.param("class --m 5 --n 3", None, 2, b"", id="class --m 5 --n 3"),
        # argparse's usage error
        pytest.param("count --m 2 --n 3 --a 3", None, 1, b"", id="count --m 2 --n 3 --a 3"),
    ],
)
def test_closed_stderr_costs_neither_stdout_nor_the_exit_code(argv, threads, code, out, unbuffered):
    env = cli_env(unbuffered)
    env.pop("TVCOUNT_THREADS", None)
    if threads is not None:
        env["TVCOUNT_THREADS"] = threads
    proc = run_with_closed_stderr(["-m", "tvcount.cli", *argv.split()], env)
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stderr_keeps_the_internal_failure_exit_3(unbuffered):
    # the catch-all's traceback cannot be written, and the exit code is still 3
    code = (
        "import sys; from tvcount import cli, counting\n"
        "def broken(problem): raise RuntimeError('broken kernel')\n"
        "counting.degree_of_power_sum_locus = broken\n"
        "sys.exit(cli.main(['count', '--m', '2', '--n', '3', '--a', '3', '--b', '2']))\n"
    )
    proc = run_with_closed_stderr(["-c", code], cli_env(unbuffered))
    assert (proc.returncode, proc.stdout) == (3, b"")


ENGINE = ("tvcount.counting", "tvcount.cycles", "tvcount.ring", "tvcount.forms")
CHOW_RING = ["tvcount.counting", "tvcount.cycles", "tvcount.ring"]


def test_cli_import_loads_no_heavy_modules():
    # what a count process pays for before it starts: none of these, unless
    # interpreter start-up (site) had loaded them already
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "json", "traceback", "argparse", *ENGINE)
    code = (
        "import sys; before = set(sys.modules); import tvcount.cli; "
        f"print([m for m in {heavy!r} if m in set(sys.modules) - before])"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ("transvect --f 1,0,0 --g 0,1", ["tvcount.forms"]),
        ("class --m 2 --n 3", ["tvcount.cycles", "tvcount.ring"]),
        ("count --m 2 --n 3 --a 3 --b 2", CHOW_RING),
        # refused before validation: d is not divisible by a
        ("count --d 7 --a 3 --b 2", []),
        # refused by validation, which is PowerSumProblem's
        ("count --m 3 --n 6 --a 2 --b 1", CHOW_RING),
        ("table --max-d 6", CHOW_RING),
        ("selftest", CHOW_RING),
    ],
)
def test_each_command_loads_only_the_engine_it_runs(argv, loaded):
    code = (
        "import sys; from tvcount.cli import main; "
        f"main({argv.split()!r}); print([m for m in {ENGINE!r} if m in sys.modules])"
    )
    env = {k: v for k, v in os.environ.items() if k != "TVCOUNT_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**env, "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


# -- reading argv ------------------------------------------------------------------

# every argv the tests above pass to main, one per line; the empty argv is
# added in the test
TEST_ARGV = """
count --m 2 --n 3 --a 3 --b 2
count --d 12 --a 3 --b 2
count --m 2 --n 3 --a 3 --b 2 --json
count --m 10 --n 21 --a 21 --b 10 --json
count --m 1 --n 2 --a 2 --b 1
count --m 1 --n 2 --a 2 --b 1 --json
count --m 1 --n 1 --a 2 --b 2
count --m 1 --n 1 --a 2 --b 2 --json
count --m 2 --n 2 --a 2 --b 2
count --m 2 --n 2 --a 2 --b 2 --json
count --m 4 --n 8 --a 4 --b 2
count --m 2 --n 3 --a 2 --b 3
count --d 13 --a 3 --b 2
count --d 6 --a 0 --b 2
count --d 6 --a -3 --b 2
count --d 6 --a 3 --b 0
count --d 6 --a 3 --b -3
count --d 0 --a 2 --b 3
count --d -6 --a 3 --b 2
count --a 3 --b 2
count --m 2 --n 3 --d 6 --a 3 --b 2
count --m 2 --n 3 --a 3
count --m 511 --n 1023 --a 1023 --b 511
count --m 511 --n 1023 --a 1023 --b 511 --json
count --m 540 --n 1081 --a 1081 --b 540
count --m 540 --n 1081 --a 1081 --b 540 --json
count --m 2 --n 1000000 --a 500000 --b 1
count --d 1000000000000 --a 1000000000000 --b 1
count --m 1000 --n 1001 --a 1001 --b 1000
count --m 510 --n 1021 --a 1021 --b 510
count --m 784 --n 862 --a 431 --b 392
count --m 1 --n 499999 --a 499999 --b 1
count --m 104 --n 209 --a 209 --b 104
count --m 104 --n 209 --a 209 --b 104 --json
nonsense
class --m 1 --n 1
class --m 2 --n 2 --format latex
class --m 2 --n 3 --format json
class --m 3 --n 6
class --m 3 --n 2
class --m 5 --n 3
class --m 1 --n 50000 --format json
class --m 315 --n 317 --format json
class --m 600 --n 1201 --format json
class --m 1000000000 --n 2000000001 --format json
class --m 1 --n 49999
transvect --f 1,0,0 --g 0,1
transvect --f 1,1 --g 1,1
transvect --f 1,0 --g 0,1
transvect --f 1/2,0,0 --g 0,1
transvect --f 1,1,1 --g 1,1 --binomial
transvect --f 1,0,0 --g 0,1 --json
transvect --f -1,2 --g 1,1
transvect --f=-1,2 --g 1,1
transvect --g -1/2,0 --f -1,0,0 --json
transvect --f --g 1,1
transvect --f 1,oops --g 0,1
transvect --f 1/0 --g 0,1
transvect --f 1e10000000,1 --g 1,1
transvect --f -2E-10000000,1 --g 1,1
transvect --f 1e+1_0000000,1 --g 1,1
transvect --f 1e4300,0 --g 0,1
transvect --f 1e4300,0 --g 0,1 --json
transvect --f 5 --g 0,1
table --max-d -1
table --max-d 6
table --max-d 5 --csv
table --max-d 4 --csv
table --max-d 1001 --csv
table --max-d 27000 --csv
table --max-d 1000000000000 --csv
table --max-d 1000 --csv
table --max-d 120 --csv
table --max-d 10 --csv
table --max-d 40 --csv
table --max-d 6 --csv
table --max-d 40
table --max-d 300
selftest
--help
"""

# the argv shapes of the benchmark's cli workload, each of which the reader
# must take
BENCH_ARGV = """
count --m 4 --n 6 --a 3 --b 2
count --m 4 --n 6 --a 3 --b 2 --json
count --d 12 --a 3 --b 2
count --d 12 --a 3 --b 2 --json
selftest
class --m 2 --n 3 --format json
class --m 3 --n 4 --format text
class --m 4 --n 6 --format latex
transvect --f=-3,1/2,0 --g=2,-7/3
transvect --f=-3,1/2,0 --g=2,-7/3 --json
count --m 3 --n 6 --a 2 --b 1
count --d 7 --a 3 --b 2
"""

# argv the reader must leave to argparse, whatever argparse makes of them
MALFORMED_ARGV = """
-h
coun --m 2 --n 3 --a 3 --b 2
Count --m 2 --n 3 --a 3 --b 2
--json count --m 2 --n 3 --a 3 --b 2
table --max 6
table --max=6 --csv
count --m 2 --n 3 --a 3 --b 2 --js
count --m 2 --n 3 --a 3 --b 2 --json=1
count --m 2 --n 3 --a -3_000 --b 2
count --m 2 --n 3 --a -3 --b 2
class --m 2 --n 3 --format
transvect --f 1,0 --g 0,1 --binomial=yes
selftest --
selftest 3
"""

FORMS = ("1,0", "-1,1/2", "3", "")
# values that leave a command to argparse: a separate one that starts with
# "-" (argparse's negative-number rule, which takes -3 but not -3_000), or
# one that int() or the choices refuse
BAD_INTS = ("-3", "-3_000", "3.0", "x", "")
BAD_CHOICES = ("xml", "", "TEXT")
STRAYS = ("3", "x", "count", "--", "-h", "--help", "-m", "--q", "--verbose")


def option_tokens(rng, flag, value):
    # "--m 3" or "--m=3", at random
    return [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]


def generated_argv(rng, per_command=300):
    """(argv, well_formed) for each command: options in random order, each
    value separate or after "=", and in most argv one defect."""
    for command, (_, _, _, options) in cli._COMMANDS.items():
        for _ in range(per_command):
            units = []
            for option in options:
                flag, _, kind, required, _, _ = option
                if not required and rng.random() < 0.5:
                    continue
                if kind is bool:
                    units.append((option, [flag]))
                    continue
                value = str(rng.randint(-5, 10**6)) if kind is int else rng.choice(FORMS if kind is str else kind)
                tokens = [f"{flag}={value}"] if value.startswith("-") else option_tokens(rng, flag, value)
                units.append((option, tokens))
            rng.shuffle(units)
            spoilt = rng.random() < 0.6 and spoil(rng, options, units)
            yield [command, *(token for _, tokens in units for token in tokens)], not spoilt


def spoil(rng, options, units) -> bool:
    """Give units one defect that leaves the command to argparse; False when
    the defect drawn does not apply to them."""
    kind = rng.randrange(6)
    if kind == 0:  # a bad value
        typed = [(option, tokens) for option, tokens in units if option[2] not in (str, bool)]
        if not typed:
            return False
        option, tokens = rng.choice(typed)
        value = rng.choice(BAD_INTS if option[2] is int else BAD_CHOICES)
        tokens[:] = [option[0], value] if value.startswith("-") else option_tokens(rng, option[0], value)
    elif kind == 1:  # an abbreviated option
        long_ = [tokens for option, tokens in units if len(option[0]) > 3]
        if not long_:
            return False
        tokens = rng.choice(long_)
        flag, eq, value = tokens[0].partition("=")
        tokens[0] = flag[: rng.randrange(3, len(flag))] + eq + value
    elif kind == 2:  # a flag given a value
        flags = [option for option in options if option[2] is bool]
        if not flags:
            return False
        units.append((None, [f"{rng.choice(flags)[0]}={rng.choice(('1', '', 'yes'))}"]))
    elif kind == 3:  # a stray token, "--", help or an unknown option
        units.insert(rng.randrange(len(units) + 1), (None, [rng.choice(STRAYS)]))
    elif kind == 4:  # a missing value
        valued = [option for option in options if option[2] is not bool]
        if not valued:
            return False
        units.append((None, [rng.choice(valued)[0]]))
    else:  # a missing required option
        required = [unit for unit in units if unit[0][3]]
        if not required:
            return False
        units.remove(rng.choice(required))
    return True


def test_reader_agrees_with_argparse(capsys):
    # the reader gives None, and main() argparse, or it gives what argparse
    # gives; it takes every well-formed argv and leaves every malformed one
    corpus = [(line.split(), None) for line in TEST_ARGV.strip().splitlines()]
    corpus += [(line.split(), True) for line in BENCH_ARGV.strip().splitlines()]
    corpus += [(line.split(), False) for line in MALFORMED_ARGV.strip().splitlines()]
    # an empty argv, and a repeated option: the last value counts
    corpus += [([], False), ("count --m 9 --m 2 --n 3 --a 3 --b 2 --json --json".split(), True)]
    corpus += generated_argv(random.Random(17))
    parser = cli.build_parser()
    read = 0
    for argv, well_formed in corpus:
        argv = cli._attach_form_values(argv)
        got = cli._read_argv(argv)
        if well_formed is not None:
            assert (got is not None) == well_formed, argv
        if got is None:
            continue
        try:
            want = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the reader took {argv}, which argparse refuses: {capsys.readouterr().err}")
        assert vars(got) == vars(want), argv
        read += 1
    assert len(corpus) > 1500 and read > len(corpus) // 3


@pytest.mark.parametrize(
    "argv, imports_argparse",
    [
        (["count", "--m", "2", "--n", "3", "--a", "3", "--b", "2"], False),
        (["class", "--m", "2", "--n", "3", "--format", "latex"], False),
        (["transvect", "--f", "-1,2", "--g", "1,1"], False),
        (["table", "--max-d", "6"], False),
        (["selftest"], False),
        (["--help"], True),
        (["count", "--a", "3"], True),
    ],
)
def test_well_formed_commands_do_not_import_argparse(argv, imports_argparse):
    heavy = ("argparse", "gettext", "locale", "__future__")
    code = (
        "import sys; before = set(sys.modules); from tvcount.cli import main; "
        f"main({argv!r}); print([m for m in {heavy!r} if m in set(sys.modules) - before])"
    )
    env = {k: v for k, v in os.environ.items() if k != "TVCOUNT_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**env, "PYTHONPATH": PACKAGE_ROOT})
    loaded = proc.stdout.splitlines()[-1]
    assert ("argparse" in loaded) == imports_argparse, loaded
    if not imports_argparse:
        assert loaded == "[]"
